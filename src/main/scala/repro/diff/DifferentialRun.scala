package repro.diff

import scala.collection.mutable
import EdgeArrangement.Delta
import Engine._
import VertexProgram.neq

/** Differentially maintain a program's run when advancing a collection to
  * the next view (§3.2.2) — this repo's analog of DD "fixing the computation
  * footprint".
  *
  * Given the previous view's trace (per-iteration change-points), the new
  * view's edges E_t, and the difference set δE, the replay recomputes, at
  * every iteration, only the vertices whose inputs can differ from the
  * stored run:
  *
  *   - `W` — vertices with a changed in-edge (dst of δE), plus, for
  *     degree-dependent programs, all out-neighbors of sources with changed
  *     degree. δE carries DD timestamp ⟨t, 0⟩, below every iteration, so W
  *     is affected at *every* iteration.
  *   - `N_out(Diff_{i-1})` — downstream of vertices whose value at the
  *     previous iteration diverged from the stored trace.
  *
  * Invariant (induction over iterations): any vertex not in the examined
  * set has exactly its stored value, so `Diff_i` doubles as the complete
  * override set of iteration i.
  *
  * Stop rule: stop after iteration i iff (1) no examined vertex changed
  * from i−1 to i, and (2) the stored trace has no change-point at any
  * iteration ≥ i on R = A′ ∪ N_in(A′), where A′ = W ∪ N_out(Diff_i) ∪
  * Diff_i is the set iteration i+1 would examine. It is sound because every
  * in-neighbor of A′ lies in R and so holds the same value at i−1 and i —
  * examined ones by (1), the others because they carry stored values, which
  * (2) freezes. Each vertex of A′ therefore recomputes its value of
  * iteration i, R stays frozen, and every vertex outside A′ has unchanged
  * inputs and follows the stored run; by induction every later iteration is
  * the stored run overridden by `Diff_i`, and so is the final state. (2)
  * holds trivially once i > lastIter; otherwise it is `lastChange(v) < i`
  * for every v ∈ R on the arranged trace. Because the query is scoped to
  * the divergence region rather than the whole trace, replay cost tracks
  * the locality of the change, not the trace length (the paper's z_jk
  * sharing argument).
  *
  * The replay runs on the driver, over the collection loop's
  * [[EdgeArrangement]] already advanced to the view: the arranged trace,
  * the frontier (W, A_i, Diff_i) and the edges are all driver-side, and a
  * vertex is recomputed by the kernel the scratch run uses
  * ([[VertexProgram.step]]). No iteration issues a Spark job. Per-iteration
  * cost therefore scales with the size of the computation-footprint
  * difference, not |V| or |E| — the computation sharing the paper's Table 2
  * / Figure 6 measure.
  */
object DifferentialRun {

  def run(program: VertexProgram, edges: EdgeArrangement, delta: Seq[Delta],
          prev: RunResult): RunResult = {

    // The changed edges' endpoints, mirrored as the program reads edges.
    val changed = delta.map(d => (d.src, d.dst))
    val pairs = if (program.undirected) changed ++ changed.map(_.swap) else changed
    if (pairs.isEmpty)
      return prev.copy(iterations = 0, workRows = 0L, iterStats = Nil, stop = None)

    val trace = prev.trace
    def outNbrs(v: Long) = edges.outNbrs(v, program.undirected)

    // ---- perpetually-affected set W ------------------------------------
    val deltaDsts = pairs.map(_._2).toSet
    val deltaSrcs = if (program.degreeDependent) pairs.map(_._1).toSet else Set.empty[Long]
    val w = deltaDsts ++ deltaSrcs.flatMap(outNbrs)

    // Examined set of the iteration after one that diverged on `diff`: W,
    // downstream of the divergence, and the divergence itself — a diverged
    // vertex whose inputs match the stored run again must be *re-examined*
    // so its revert to the stored value lands in the new trace as a
    // change-point.
    def examinedAfter(diff: collection.Map[Long, Double]): Set[Long] =
      if (diff.isEmpty) w else w ++ diff.keys.flatMap(outNbrs) ++ diff.keys

    // ---- iteration replay ----------------------------------------------
    val examinedAt = mutable.HashMap.empty[Long, mutable.BitSet]
    val added = mutable.HashMap.empty[Long, mutable.ArrayBuffer[(Int, Double)]]
    val iterStats = Vector.newBuilder[IterStat]
    var diffPrev: collection.Map[Long, Double] = Map.empty
    var affected = w
    var i = 0
    var work = 0L
    var stop = Option.empty[Stop]
    val cap = program.fixedIterations.getOrElse(program.maxIterations)

    while (stop.isEmpty && i < cap) {
      i += 1
      val iterT0 = System.nanoTime()

      // Recompute affected vertices from their full current in-neighborhood
      // at states of iteration i-1 (stored ⊕ previous-iteration overrides).
      val prevDiff = diffPrev
      val prevValue: Long => Double = v => prevDiff.getOrElse(v, trace.valueAt(v, i - 1))
      val diffCur = mutable.HashMap.empty[Long, Double]
      var cpCnt = 0
      affected.foreach { v =>
        val value = program.step(edges, v, prevValue)
        if (neq(value, trace.valueAt(v, i))) diffCur(v) = value
        if (neq(value, prevValue(v))) {
          added.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += (i -> value)
          cpCnt += 1
        }
        examinedAt.getOrElseUpdate(v, mutable.BitSet.empty) += i
      }
      work += affected.size

      // The stop rule (see the scaladoc for why it is sound).
      val next = examinedAfter(diffCur)
      stop =
        if (cpCnt > 0) None
        else if (i > trace.lastIter) Some(Stop.PastHorizon)
        else {
          val region = next.iterator ++ next.iterator.flatMap(edges.inNbrs(_, program.undirected))
          if (region.forall(trace.lastChange(_) < i)) Some(Stop.TraceQuiet) else None
        }
      if (stop.isEmpty && i == cap) stop = Some(Stop.Cap)
      iterStats += IterStat(i, affected.size, diffCur.size, cpCnt,
                            (System.nanoTime() - iterT0) / 1000000)
      diffPrev = diffCur
      affected = next
    }

    // ---- assemble result ------------------------------------------------
    val newFinal = prev.finalState ++ diffPrev
    val newTrace = trace.rewrite(examinedAt.map { case (v, its) =>
      (v, its.contains _, added.get(v).fold(Seq.empty[(Int, Double)])(_.toSeq))
    })

    RunResult(newFinal, newTrace, i, work, iterStats.result(), stop)
  }
}
