package repro.diff

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable
import Engine._
import VertexProgram.neq

/** Run a program on a single view from scratch (§5's "scratch" mode).
  *
  * "From scratch" still shares computation across *iterations* — exactly
  * as the paper notes: even a scratch run is a differential computation in
  * the iteration dimension. Each iteration's change-points are collected to
  * the driver and arranged into the run's [[Trace]], so that a later view
  * can be maintained differentially against it. A run that the iteration
  * cap ends before a quiet iteration reports `Stop.Cap`.
  */
object ScratchRun {

  def run(spark: SparkSession, program: VertexProgram,
          vertices: DataFrame, preparedEdges: DataFrame): RunResult = {
    val (init, vcount) = ckptCounted(
      vertices.select(col("vid"), program.initExpr(col("vid")).cast("double").as("value")))
    var prev = init
    val changePoints = mutable.ArrayBuffer.empty[(Long, Int, Double)]
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
      val changes = cur
        .join(prev.select(col("vid").as("__pv"), col("value").as("__pval")),
              col("vid") === col("__pv"))
        .where(neq(col("value"), col("__pval")))
        .select(col("vid"), col("value"))
        .collect()
      changes.foreach(r => changePoints += ((r.getLong(0), i, r.getDouble(1))))
      work += vcount // a scratch iteration touches every vertex
      prev = cur
      // A fixpoint iteration with no changes stays changeless forever —
      // valid for fixed-iteration programs too (the state is stationary).
      if (changes.isEmpty) done = true
    }

    RunResult(prev, Trace(changePoints, program.hooks.init), i, work,
              stop = if (done) None else Some(Stop.Cap))
  }
}
