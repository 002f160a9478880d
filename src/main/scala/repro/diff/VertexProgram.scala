package repro.diff

import repro.views.DiffStream.Slice
import Engine.RunResult

/** An iterative graph analytics program in Jacobi vertex-centric form —
  * the repo's analog of the paper's `graph_analytics` DD programs
  * (Listing 2).
  *
  * Semantics per iteration i ≥ 1 over the current view's edges E:
  * {{{
  *   state_i(v) = combine( init(v),
  *                         AGG_{(u,v) ∈ E} msg(state_{i-1}(u), w(u,v), deg(u)) )
  * }}}
  * with `state_0 = init`. The Jacobi form (a vertex's new value depends on
  * its neighbors' previous values and its own *initial* value, never its own
  * previous value) is what makes differential replay correct under edge
  * deletions: an affected vertex recomputed from its current in-neighborhood
  * can move in either direction.
  *
  * The per-vertex logic is plain Scala, as the paper's DD programs write it
  * as closures. Every run goes through the one Jacobi loop,
  * [[DifferentialRun]]: a run from scratch is the replay from the empty run
  * over every vertex, an advance the replay over the vertices a view's
  * difference set affects. Both compute a vertex's state with the one
  * Jacobi kernel [[step]] over the collection loop's [[EdgeArrangement]].
  */
trait VertexProgram extends Analytic {
  /** state_0(v), and the `init` that [[combine]] receives. */
  def init(vid: Long): Double

  /** Message along an edge from a source holding `value`; `srcDeg` is the
    * source's out-degree in the current view when [[degreeDependent]],
    * else 1.
    */
  def msg(value: Double, weight: Double, srcDeg: Long): Double

  /** True → min-aggregation, false → sum-aggregation of messages. */
  def aggIsMin: Boolean

  /** Combine init with the aggregated messages; a vertex with no in-edges
    * gets the aggregation's identity (+∞ for min, 0 for sum).
    */
  def combine(init: Double, agg: Double): Double

  /** Messages depend on the source's out-degree (PageRank): an edge diff at
    * u perturbs *all* of u's messages — the instability §5 discusses.
    */
  def degreeDependent: Boolean = false

  /** Propagate along both edge directions (WCC). */
  def undirected: Boolean = false

  /** Some(k): run exactly k iterations (PageRank); None: to fixpoint. */
  def fixedIterations: Option[Int] = None

  /** Safety cap for fixpoint programs. */
  def maxIterations: Int = 500

  /** The Jacobi kernel: the state of dense id `v` at iteration i over the
    * view's edges, given every vertex's state at i−1 by dense id through
    * `prev`. Edges are mirrored when [[undirected]]; `srcDeg` is the
    * source's out-degree when [[degreeDependent]], else 1.
    */
  final def step(edges: EdgeArrangement, v: Int, prev: Int => Double): Double = {
    val agg = gather(edges, edges.inAdj(v), prev, if (aggIsMin) Double.PositiveInfinity else 0.0)
    combine(init(edges.index(v)), if (undirected) gather(edges, edges.outAdj(v), prev, agg) else agg)
  }

  private def gather(edges: EdgeArrangement, a: EdgeArrangement.Adj, prev: Int => Double,
                     from: Double): Double = {
    var agg = from
    var k = 0
    while (k < a.size) {
      val u = a.nbr(k)
      val m = msg(prev(u), a.weight(k), if (degreeDependent) edges.degree(u, undirected).toLong else 1L)
      agg = if (aggIsMin) math.min(agg, m) else agg + m
      k += 1
    }
    agg
  }

  final def fromScratch(vertices: Array[Long], edges: EdgeArrangement): RunResult =
    DifferentialRun.fromScratch(this, vertices, edges)

  final def advance(edges: EdgeArrangement, delta: Slice, prev: RunResult): RunResult =
    DifferentialRun.run(this, edges, delta, prev)
}

object VertexProgram {

  /** Value-inequality with a 1e-9 tolerance: the predicate that defines
    * trace change-points and differential divergence. Equal values —
    * same-sign infinities and NaN against NaN included — are unchanged;
    * NaN against a number is a change.
    */
  def neq(a: Double, b: Double): Boolean =
    if (a == b) false
    else if (a.isNaN || b.isNaN) !(a.isNaN && b.isNaN)
    else math.abs(a - b) > 1e-9
}
