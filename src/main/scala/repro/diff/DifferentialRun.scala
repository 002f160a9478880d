package repro.diff

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import Engine._
import VertexProgram.neq

/** Differentially maintain a program's run when advancing a collection to
  * the next view (§3.2.2) — the Spark analog of DD "fixing the computation
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
  * The replay's state lives on the driver: the arranged trace, the
  * frontier (W, A_i, Diff_i) and the edge slices of the vertices it has
  * examined. Spark only fetches a vertex's in- and out-edges, once per
  * view, the first time it is examined — at most one job per iteration and
  * none on an iteration that reaches no new vertex. The program's hooks run
  * on the driver through [[DriverHooks]]. Per-iteration cost therefore
  * scales with the size of the computation-footprint difference, not |V|
  * or |E| — the computation sharing the paper's Table 2 / Figure 6 measure.
  */
object DifferentialRun {

  private final case class InEdge(src: Long, weight: Double, srcdeg: Long)

  def run(spark: SparkSession, program: VertexProgram, vertices: DataFrame,
          preparedEdges: DataFrame, delta: DataFrame,
          prev: RunResult): RunResult = {

    // The changed edges' endpoints, mirrored as the prepared edges are.
    val changed = delta.select("src", "dst").collect()
      .map(r => (r.getLong(0), r.getLong(1)))
    val pairs = if (program.undirected) changed ++ changed.map(_.swap) else changed
    if (pairs.isEmpty)
      return prev.copy(iterations = 0, workRows = 0L, iterStats = Nil, stop = None)

    val hooks = program.hooks
    val trace = prev.trace

    // ---- edge slices of the view, fetched once per vertex ---------------
    val inEdges  = mutable.HashMap.empty[Long, mutable.ArrayBuffer[InEdge]]
    val outNbrs  = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
    var fetched = 0 // vertices fetched since the last iteration record
    def fetch(s: Iterable[Long]): Unit = {
      val fresh = s.iterator.filterNot(inEdges.contains).toSet
      if (fresh.nonEmpty) {
        fresh.foreach { v =>
          inEdges(v) = mutable.ArrayBuffer.empty
          outNbrs(v) = mutable.ArrayBuffer.empty
        }
        val ids = fresh.toSeq
        preparedEdges
          .where(col("dst").isin(ids: _*) || col("src").isin(ids: _*))
          .select("src", "dst", "weight", "srcdeg").collect()
          .foreach { r =>
            val (src, dst) = (r.getLong(0), r.getLong(1))
            if (fresh(dst)) inEdges(dst) += InEdge(src, r.getDouble(2), r.getLong(3))
            if (fresh(src)) outNbrs(src) += dst
          }
        fetched += fresh.size
      }
    }

    // ---- perpetually-affected set W ------------------------------------
    val deltaDsts = pairs.map(_._2).toSet
    val deltaSrcs = if (program.degreeDependent) pairs.map(_._1).toSet else Set.empty[Long]
    fetch(deltaDsts ++ deltaSrcs)
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
      fetch(affected)

      // Recompute affected vertices from their full current in-neighborhood
      // at states of iteration i-1 (stored ⊕ previous-iteration overrides).
      def prevValue(v: Long): Double = diffPrev.getOrElse(v, trace.valueAt(v, i - 1))
      val diffCur = mutable.HashMap.empty[Long, Double]
      var cpCnt = 0
      affected.foreach { v =>
        val msgs = inEdges(v).iterator.map(e => hooks.msg(prevValue(e.src), e.weight, e.srcdeg))
        val agg =
          if (!msgs.hasNext) None
          else Some(if (program.aggIsMin) msgs.reduce((a, b) => math.min(a, b)) else msgs.sum)
        val value = hooks.apply(v, agg)
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
          fetch(next)
          val region = next.iterator ++ next.iterator.flatMap(v => inEdges(v).iterator.map(_.src))
          if (region.forall(trace.lastChange(_) < i)) Some(Stop.TraceQuiet) else None
        }
      if (stop.isEmpty && i == cap) stop = Some(Stop.Cap)
      iterStats += IterStat(i, affected.size, diffCur.size, cpCnt, fetched,
                            (System.nanoTime() - iterT0) / 1000000)
      fetched = 0
      diffPrev = diffCur
      affected = next
    }

    // ---- assemble result ------------------------------------------------
    val newFinal =
      if (diffPrev.isEmpty) prev.finalState
      else {
        val overrides = spark.sparkContext.broadcast(diffPrev.toMap)
        ckpt(spark.createDataFrame(
          prev.finalState.rdd.map { r =>
            val v = r.getLong(0)
            Row(v, overrides.value.getOrElse(v, r.getDouble(1)))
          },
          prev.finalState.schema))
      }
    val newTrace = trace.rewrite(examinedAt.map { case (v, its) =>
      (v, its.contains _, added.get(v).fold(Seq.empty[(Int, Double)])(_.toSeq))
    })

    RunResult(newFinal, newTrace, i, work, iterStats.result(), stop)
  }
}
