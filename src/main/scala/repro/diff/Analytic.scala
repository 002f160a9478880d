package repro.diff

import org.apache.spark.sql.{DataFrame, SparkSession}
import Engine.RunResult

/** An analytic the collection loop ([[CollectionExecutor]]) can run on a
  * view: from scratch on the view's edges, or by advancing the previous
  * view's result with the view's difference set. Vertex programs advance
  * by trace replay ([[DifferentialRun]]); SCC by condensation.
  *
  * Results are `vid, value` frames with a double `value`.
  */
trait Analytic {
  def name: String

  /** The view's edges in the form both runs consume. Runs outside the
    * per-view timing, with edge maintenance.
    */
  def prepareEdges(edges: DataFrame): DataFrame = edges

  def fromScratch(spark: SparkSession, vertices: DataFrame,
                  preparedEdges: DataFrame): RunResult

  /** @param delta the view's difference set: `eid, src, dst, weight, diff` */
  def advance(spark: SparkSession, vertices: DataFrame, preparedEdges: DataFrame,
              delta: DataFrame, prev: RunResult): RunResult
}
