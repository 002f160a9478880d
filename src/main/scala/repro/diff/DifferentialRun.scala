package repro.diff

import repro.views.DiffStream
import scala.collection.mutable.ArrayBuilder
import Engine._
import VertexProgram.neq

/** The one Jacobi loop: differentially maintain a program's run when
  * advancing a collection to the next view (§3.2.2) — this repo's analog
  * of DD "fixing the computation footprint" — and run a view from scratch
  * as the same replay from the empty run.
  *
  * Given a stored run's trace (per-iteration change-points), the view's
  * edges E_t and the perpetually-affected set W, the replay recomputes, at
  * every iteration, only the vertices whose inputs can differ from the
  * stored run:
  *
  *   - `W` — advancing by δE: the vertices with a changed in-edge (dst of
  *     δE), plus, for degree-dependent programs, all out-neighbors of
  *     sources with changed degree. δE carries DD timestamp ⟨t, 0⟩, below
  *     every iteration, so W is affected at *every* iteration. From
  *     scratch: every vertex, against the empty run (an all-`init` trace
  *     with horizon 0), so the run stops at its first quiet iteration.
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
  * The replay runs on the driver over the collection loop's
  * [[EdgeArrangement]], already advanced to the view, and issues no Spark
  * job. Its state is arrays over the dense vertex ids: the overrides of
  * iterations i−1 and i stamped with their iteration, the frontier as int
  * lists with a stamp array, and the new change-points in flat primitive
  * buffers. A run allocates O(|V|) of it; an iteration costs O(|A_i|) and
  * the edges it reads.
  */
object DifferentialRun {

  /** Run `program` on the view from scratch: the replay from the empty run
    * with W = every vertex of the arrangement's index, `vertices` included.
    */
  def fromScratch(program: VertexProgram, vertices: Array[Long], edges: EdgeArrangement): RunResult = {
    vertices.foreach(edges.index.add)
    val empty = RunResult(Array.emptyDoubleArray, Trace.empty(edges.index, program.init), 0, 0L)
    replay(program, edges, Array.fill(edges.index.size)(true), empty)
  }

  /** Advance `prev`, a run on the same arrangement, by the view's
    * difference set `delta`, already applied to `edges`.
    */
  def run(program: VertexProgram, edges: EdgeArrangement, delta: DiffStream.Slice,
          prev: RunResult): RunResult = {
    if (delta.size == 0)
      return prev.copy(iterations = 0, workRows = 0L, iterStats = Nil, stop = None)
    require(prev.index eq edges.index, "a replay continues a run on the same arrangement")

    // The changed edges' endpoints, mirrored as the program reads edges.
    val inW = new Array[Boolean](edges.index.size)
    for (k <- 0 until delta.size) {
      val (s, t) = (edges.index.find(delta.src(k)), edges.index.find(delta.dst(k)))
      for ((src, dst) <- if (program.undirected) Seq(s -> t, t -> s) else Seq(s -> t)) {
        inW(dst) = true
        if (program.degreeDependent) edges.eachOut(src, program.undirected)(inW(_) = true)
      }
    }
    replay(program, edges, inW, prev)
  }

  private def replay(program: VertexProgram, edges: EdgeArrangement, inW: Array[Boolean],
                     prev: RunResult): RunResult = {
    val n = inW.length
    val w = ids(n)(inW(_))
    val trace = prev.trace
    val undirected = program.undirected
    val over = Array.ofDim[Double](2, n)  // Diff_i's values, by the parity of i
    val overAt = Array.ofDim[Int](2, n)   // the iteration of each entry of `over`
    val mark = new Array[Int](n)          // i once v ∉ W joined the examined set of iteration i
    val cpId, cpIter, exId, exIter = new ArrayBuilder.ofInt // change-points; examinations outside W
    val cpValue = new ArrayBuilder.ofDouble
    val iterStats = Vector.newBuilder[IterStat]
    var extra = Array.emptyIntArray // A_i \ W
    var diff = Array.emptyIntArray  // Diff_i
    var i = 0
    var work = 0L
    var stop = Option.empty[Stop]
    val cap = program.fixedIterations.getOrElse(program.maxIterations)

    while (stop.isEmpty && i < cap) {
      i += 1
      val j = i
      val iterT0 = System.nanoTime()

      // Recompute affected vertices from their full current in-neighborhood
      // at states of iteration j−1 (stored ⊕ previous-iteration overrides).
      val (prevOver, prevAt) = (over((j - 1) & 1), overAt((j - 1) & 1))
      val (curOver, curAt) = (over(j & 1), overAt(j & 1))
      val fromIter = if (j == 1) -1 else j - 1
      val prevValue: Int => Double = u => if (prevAt(u) == fromIter) prevOver(u) else trace.at(u, j - 1)
      val diverged = new ArrayBuilder.ofInt
      val cp0 = cpId.length
      def examine(v: Int): Unit = {
        val value = program.step(edges, v, prevValue)
        if (neq(value, trace.at(v, j))) { curOver(v) = value; curAt(v) = j; diverged += v }
        if (neq(value, prevValue(v))) { cpId += v; cpIter += j; cpValue += value }
      }
      var k = 0
      while (k < w.length) { examine(w(k)); k += 1 }
      k = 0
      while (k < extra.length) { examine(extra(k)); exId += extra(k); exIter += j; k += 1 }
      work += w.length + extra.length
      diff = diverged.result()
      val changePoints = cpId.length - cp0

      // Examined set of the next iteration outside W: downstream of the
      // divergence, and the divergence itself — a diverged vertex whose
      // inputs match the stored run again must be *re-examined* so its
      // revert to the stored value lands in the new trace as a change-point.
      val next = new ArrayBuilder.ofInt
      def join(u: Int): Unit = if (!inW(u) && mark(u) != j + 1) { mark(u) = j + 1; next += u }
      if (w.length < n) diff.foreach { v => join(v); edges.eachOut(v, undirected)(join) }
      val nextExtra = next.result()

      // The stop rule (see the scaladoc for why it is sound).
      stop =
        if (changePoints > 0) None
        else if (j > trace.lastIter) Some(Stop.PastHorizon)
        else {
          var frozen = true
          def check(u: Int): Unit = frozen &&= trace.lastChange(u) < j
          (w.iterator ++ nextExtra.iterator).takeWhile(_ => frozen)
            .foreach { v => check(v); edges.eachIn(v, undirected)(check) }
          if (frozen) Some(Stop.TraceQuiet) else None
        }
      if (stop.isEmpty && j == cap) stop = Some(Stop.Cap)
      iterStats += IterStat(j, w.length + extra.length, diff.length, changePoints,
                            (System.nanoTime() - iterT0) / 1000000)
      extra = nextExtra
    }

    // ---- assemble result ------------------------------------------------
    val last = i
    val values = prev.valuesOn(edges.index, program.init)
    diff.foreach(v => values(v) = over(last & 1)(v))

    // Per rewritten vertex: the iterations it was examined at (all of 1..i
    // for W) and its new change-points, each grouped by one counting sort.
    val (cpIters, cpValues, exIters) = (cpIter.result(), cpValue.result(), exIter.result())
    val (cpsOf, examsOf) = (group(cpId.result(), n), group(exId.result(), n))
    val rewritten = ids(n)(v => inW(v) || mark(v) > 0).iterator.map { v =>
      val examined: Int => Boolean = if (inW(v)) _ <= last else examsOf(v).map(exIters).toSet
      (v, examined, cpsOf(v).map(cpIters), cpsOf(v).map(cpValues))
    }
    RunResult(values, trace.rewrite(n, rewritten), last, work, iterStats.result(), stop)
  }

  /** The ids below `n` that satisfy `p`, ascending. */
  private def ids(n: Int)(p: Int => Boolean): Array[Int] = {
    val out = new ArrayBuilder.ofInt
    for (v <- 0 until n) if (p(v)) out += v
    out.result()
  }

  /** The slots of `ids` grouped by id, each id's in insertion order. */
  private def group(ids: Array[Int], n: Int): Int => Array[Int] = {
    val (start, slots) = DiffStream.group(ids, n)
    v => slots.slice(start(v), start(v + 1))
  }
}
