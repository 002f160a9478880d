package repro.diff

import org.apache.spark.sql.{Column, DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import Engine._

/** An iterative graph analytics program in Jacobi vertex-centric form —
  * the repo's analog of the paper's `graph_analytics` DD programs
  * (Listing 2).
  *
  * Semantics per iteration i ≥ 1 over the current view's edges E:
  * {{{
  *   state_i(v) = apply( init(v),
  *                       AGG_{(u,v) ∈ E} msg(state_{i-1}(u), w(u,v), deg(u)) )
  * }}}
  * with `state_0 = init`. The Jacobi form (a vertex's new value depends on
  * its neighbors' previous values and its own *initial* value, never its own
  * previous value) is what makes differential replay correct under edge
  * deletions: an affected vertex recomputed from its current in-neighborhood
  * can move in either direction.
  *
  * All hooks are Catalyst [[Column]] expressions. The scratch executor runs
  * them inside Spark SQL; the differential replay evaluates the same
  * expressions on the driver ([[DriverHooks]]).
  */
trait VertexProgram extends Analytic {
  /** state_0 and the apply() base for a vertex id column. */
  def initExpr(vid: Column): Column

  /** Message along an edge; `srcDeg` is the source's out-degree in the
    * current view (only meaningful when [[degreeDependent]]).
    */
  def msgExpr(srcValue: Column, weight: Column, srcDeg: Column): Column

  /** True → min-aggregation, false → sum-aggregation of messages. */
  def aggIsMin: Boolean

  /** Combine init with the aggregated messages; `agg` is null for a vertex
    * with no in-edges.
    */
  def applyExpr(init: Column, agg: Column): Column

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

  /** Aggregation column. */
  final def aggColumn(c: Column): Column = if (aggIsMin) min(c) else sum(c)

  /** The hooks compiled for driver-side evaluation, built on first use. */
  final lazy val hooks: DriverHooks = new DriverHooks(this)

  final override def prepareEdges(edges: DataFrame): DataFrame = ckpt(prepare(this, edges))

  final def fromScratch(spark: SparkSession, vertices: DataFrame,
                        preparedEdges: DataFrame): RunResult =
    ScratchRun.run(spark, this, vertices, preparedEdges)

  final def advance(spark: SparkSession, vertices: DataFrame, preparedEdges: DataFrame,
                    delta: DataFrame, prev: RunResult): RunResult =
    DifferentialRun.run(spark, this, vertices, preparedEdges, delta, prev)
}

object VertexProgram {

  /** Value-inequality with a 1e-9 tolerance: the predicate that defines
    * trace change-points and differential divergence. Equal values —
    * same-sign infinities and NaN against NaN included — are unchanged;
    * NaN against a number is a change. The driver-side replay and the
    * Spark-side scratch run use the two overloads, which must agree.
    */
  def neq(a: Double, b: Double): Boolean =
    if (a == b) false
    else if (a.isNaN || b.isNaN) !(a.isNaN && b.isNaN)
    else math.abs(a - b) > 1e-9

  /** [[neq]] as a Catalyst predicate, also null-safe: null equals only
    * null. Spark compares NaN equal to NaN, matching the driver overload.
    */
  def neq(a: Column, b: Column): Column =
    !(a <=> b) && (a.isNull || b.isNull || isnan(a) || isnan(b) || abs(a - b) > lit(1e-9))
}
