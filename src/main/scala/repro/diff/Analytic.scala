package repro.diff

import repro.views.DiffStream.Slice
import Engine.RunResult

/** An analytic the collection loop ([[CollectionExecutor]]) can run on a
  * view: from scratch on the view's edges, or by advancing the previous
  * view's result with the view's difference set. Vertex programs run both
  * by trace replay ([[DifferentialRun]]), from scratch as the replay from
  * the empty run; SCC by one Tarjan DFS, over the view or, to advance, over
  * its condensation's quotient ([[repro.algorithms.Scc]]).
  *
  * Both take the view's edges as the collection loop's arrangement, already
  * advanced to the view, and run on the driver: every analytic, SCC
  * included, reads the arrangement and issues no Spark job. Results are
  * double values by the arrangement's dense vertex ids, read as
  * `vid → value` maps through `RunResult.finalState`.
  */
trait Analytic {
  def name: String

  def fromScratch(vertices: Array[Long], edges: EdgeArrangement): RunResult

  /** @param delta the view's difference set (EBM rows), applied to `edges`
    * @param prev  the previous view's result; a vertex program's must come
    *              from the same arrangement, whose dense ids it holds
    */
  def advance(edges: EdgeArrangement, delta: Slice, prev: RunResult): RunResult
}
