package repro.diff

import EdgeArrangement.Delta
import Engine.RunResult

/** An analytic the collection loop ([[CollectionExecutor]]) can run on a
  * view: from scratch on the view's edges, or by advancing the previous
  * view's result with the view's difference set. Vertex programs advance
  * by trace replay ([[DifferentialRun]]); SCC by condensation and one
  * Tarjan DFS over the quotient ([[repro.algorithms.Scc]]).
  *
  * Both take the view's edges as the collection loop's arrangement, already
  * advanced to the view, and run on the driver: every analytic, SCC
  * included, reads the arrangement and issues no Spark job. Results are
  * `vid → value` maps with a double `value`.
  */
trait Analytic {
  def name: String

  def fromScratch(vertices: Array[Long], edges: EdgeArrangement): RunResult

  /** @param delta the view's difference set, already applied to `edges` */
  def advance(edges: EdgeArrangement, delta: Seq[Delta], prev: RunResult): RunResult
}
