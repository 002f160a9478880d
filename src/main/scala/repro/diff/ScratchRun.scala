package repro.diff

import scala.collection.mutable
import Engine._
import VertexProgram.neq

/** Run a program on a single view from scratch (§5's "scratch" mode).
  *
  * "From scratch" still shares computation across *iterations* — exactly
  * as the paper notes: even a scratch run is a differential computation in
  * the iteration dimension. Every iteration recomputes every vertex with
  * the replay's kernel ([[VertexProgram.step]]) over the view's
  * [[EdgeArrangement]] — the replay with A_i = V and no trace lookups — and
  * its change-points are arranged into the run's [[Trace]], so that a later
  * view can be maintained differentially against it; the trace answers
  * iteration 0 and unchanged vertices with the program's `init`. The run
  * is on the driver and issues no Spark job. A run that the iteration cap
  * ends before a quiet iteration reports `Stop.Cap`.
  */
object ScratchRun {

  def run(program: VertexProgram, vertices: Array[Long], edges: EdgeArrangement): RunResult = {
    val init: Long => Double = program.init
    var state = mutable.LongMap.from(vertices.iterator.map(v => v -> init(v)))
    val changePoints = mutable.ArrayBuffer.empty[(Long, Int, Double)]
    var i = 0
    var work = 0L
    var done = false
    val cap = program.fixedIterations.getOrElse(program.maxIterations)

    while (!done && i < cap) {
      i += 1
      val prev = state
      val read: Long => Double = u => prev.getOrElse(u, init(u))
      state = mutable.LongMap.empty[Double]
      var changed = false
      vertices.foreach { v =>
        val value = program.step(edges, v, read)
        state(v) = value
        if (neq(value, prev(v))) {
          changePoints += ((v, i, value))
          changed = true
        }
      }
      work += vertices.length // a scratch iteration touches every vertex
      // A fixpoint iteration with no changes stays changeless forever —
      // valid for fixed-iteration programs too (the state is stationary).
      if (!changed) done = true
    }

    RunResult(state.toMap, Trace(changePoints, init), i, work,
              stop = if (done) None else Some(Stop.Cap))
  }
}
