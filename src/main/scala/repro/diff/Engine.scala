package repro.diff

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

/** Shared plumbing: the record every [[Analytic]] run returns, and the
  * frame helpers of the Spark-side code (collection building, aggregate
  * views).
  */
object Engine {

  /** Re-alias every column (fresh exprIds). Iterative plans repeatedly
    * join frames descending from the same scan; without fresh attribute
    * ids Spark's analyzer trips over ambiguous self-join references.
    */
  def fresh(df: DataFrame): DataFrame =
    df.select(df.columns.map(c => col(c).as(c)).toSeq: _*)

  /** Eagerly materialize a frame and rebuild it from the cached RDD — the
    * only safe way to carry a frame across loop iterations here.
    *
    * `localCheckpoint` is NOT used because its `LogicalRDD` inherits the
    * origin Dataset's statistics: with iterated join plans the estimated
    * `sizeInBytes` compounds multiplicatively across iterations into
    * BigIntegers with millions of digits, and the planner then spends
    * minutes inside `SizeInBytesOnlyStatsPlanVisitor`. Rebuilding via
    * `createDataFrame(rdd, schema)` resets the leaf to default statistics,
    * keeping every iteration's plan-size estimate bounded. It also assigns
    * fresh attribute ids, avoiding self-join ambiguity.
    */
  def ckpt(df: DataFrame): DataFrame = ckptCount(df)._1

  /** [[ckpt]], also returning the row count of the job that materializes
    * the frame.
    */
  def ckptCount(df: DataFrame): (DataFrame, Long) = {
    val rdd = df.rdd
    // RDD-level localCheckpoint truncates the lineage on materialization —
    // without it the DAGScheduler re-walks an ever-growing ancestry graph
    // on every job, so iteration latency creeps up across views.
    rdd.localCheckpoint()
    val n = rdd.count()
    (df.sparkSession.createDataFrame(rdd, df.schema), n)
  }

  /** Result of running a program on one view.
    *
    * @param finalState the converged state, `vid → value`, on the driver
    * @param trace      the arranged per-iteration change-points — the DD
    *                   difference representation of the iteration sequence
    *                   (iteration-0 inits are implicit: they are the
    *                   program's `init`); `trace.lastIter` is the horizon
    * @param iterations number of iterations actually executed
    * @param workRows   Σ over executed iterations of recomputed-vertex
    *                   counts (for SCC, of vertices its sweeps examine) —
    *                   the "computation footprint touched", used by tests
    *                   to prove sharing happens
    * @param iterStats  per-iteration records of a differential replay
    *                   (empty for scratch runs and SCC)
    * @param stop       why the run ended: `Stop.Cap` when the iteration
    *                   cap cut a scratch run or a replay short, else the
    *                   replay's stop-rule branch; None when a scratch run
    *                   went quiet, for SCC (which has no cap), or when
    *                   nothing ran (empty deltas)
    */
  final case class RunResult(finalState: Map[Long, Double], trace: Trace,
                             iterations: Int, workRows: Long,
                             iterStats: Seq[IterStat] = Nil, stop: Option[Stop] = None)

  /** One replay iteration i: |A_i| (examined), |Diff_i| (diverged from the
    * stored run), change-points written to the new trace, and wall ms.
    */
  final case class IterStat(iter: Int, examined: Int, diverged: Int, changePoints: Int,
                            millis: Long)

  /** Why a run ended: a branch of the replay's stop rule, or the cap. */
  sealed trait Stop
  object Stop {
    /** Quiet at an iteration past the stored trace's horizon. */
    case object PastHorizon extends Stop
    /** Quiet, and the stored trace is frozen on the divergence region. */
    case object TraceQuiet extends Stop
    /** The iteration cap (`fixedIterations`, else `maxIterations`), for a
      * replay and a scratch run alike.
      */
    case object Cap extends Stop
  }
}
