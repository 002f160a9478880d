package repro.diff

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import Engine._
import VertexProgram.neq

/** Run a program on a single view from scratch (§5's "scratch" mode).
  *
  * "From scratch" still shares computation across *iterations* — exactly
  * as the paper notes: even a scratch run is a differential computation in
  * the iteration dimension. The run records a trace of per-iteration
  * change-points so that a later view can be maintained differentially
  * against it; the trace is arranged on the driver only when a later view
  * first reads it.
  */
object ScratchRun {

  def run(spark: SparkSession, program: VertexProgram,
          vertices: DataFrame, preparedEdges: DataFrame): RunResult = {
    val vcount = vertices.count()
    var prev = ckpt(initialState(program, vertices))
    val traceParts = Seq.newBuilder[DataFrame]
    var lastIter = 0
    var i = 0
    var work = 0L
    var done = false
    val cap = program.fixedIterations.getOrElse(program.maxIterations)

    while (!done && i < cap) {
      i += 1
      val msgs = preparedEdges
        .join(prev.withColumnRenamed("vid", "__sv"),
              preparedEdges("src") === col("__sv"))
        .select(col("dst"),
                program.msgExpr(col("value"), col("weight"), col("srcdeg")).as("__m"))
      val agg = msgs.groupBy("dst").agg(program.aggColumn(col("__m")).as("__agg"))
      val cur = ckpt(
        fresh(vertices)
          .join(agg, col("vid") === agg("dst"), "left")
          .select(col("vid"),
                  program.applyExpr(program.initExpr(col("vid")).cast("double"),
                                    col("__agg")).cast("double").as("value")))
      val (changes, cnt) = ckptCounted(
        cur
          .join(prev.select(col("vid").as("__pv"), col("value").as("__pval")),
                col("vid") === col("__pv"))
          .where(neq(col("value"), col("__pval")))
          .select(col("vid"), lit(i).as("iter"), col("value")))
      work += vcount // a scratch iteration touches every vertex
      if (cnt > 0) { traceParts += changes; lastIter = i }
      prev = cur
      // A fixpoint iteration with no changes stays changeless forever —
      // valid for fixed-iteration programs too (the state is stationary).
      if (cnt == 0) done = true
    }

    val trace = traceParts.result() match {
      case Nil   => emptyTrace(spark)
      case parts => ckpt(parts.reduce(_ unionByName _))
    }
    RunResult(prev, Trace.fromFrame(trace, v => program.hooks.init(v)), lastIter, i, work)
  }
}
