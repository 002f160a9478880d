package repro.diff

import org.apache.spark.sql.{Column, Row, SparkSession}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.plans.logical.Project
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._

/** A [[VertexProgram]]'s Catalyst hooks evaluated on the driver, one record
  * at a time — the only place they are evaluated. Each hook is analyzed once
  * as a projection over an empty local relation and then evaluated by
  * Catalyst's interpreter, with no query plan and no Spark job per call.
  */
final class DriverHooks(program: VertexProgram) {

  private val schema = StructType(Seq(
    StructField("vid", LongType, nullable = false),
    StructField("value", DoubleType, nullable = false),
    StructField("weight", DoubleType, nullable = false),
    StructField("srcdeg", LongType, nullable = false),
    StructField("agg", DoubleType, nullable = true)))

  private def compile(c: Column): Expression = {
    val local = SparkSession.active
      .createDataFrame(java.util.Collections.emptyList[Row](), schema)
    local.select(c.cast("double")).queryExecution.analyzed match {
      case Project(Seq(e), child) => BindReferences.bindReference(e: Expression, child.output)
      case other => throw new IllegalStateException(s"unexpected hook plan: $other")
    }
  }

  private val initE  = compile(program.initExpr(col("vid")))
  private val msgE   = compile(program.msgExpr(col("value"), col("weight"), col("srcdeg")))
  private val applyE = compile(program.applyExpr(program.initExpr(col("vid")).cast("double"),
                                                 col("agg")))

  // A null result (no hook yields one) fails loudly instead of unboxing to 0.
  private def eval(e: Expression, vid: Long, value: Double, weight: Double, srcdeg: Long,
                   agg: Any): Double =
    e.eval(InternalRow(vid, value, weight, srcdeg, agg)).asInstanceOf[java.lang.Double]
      .doubleValue

  /** state_0(v). */
  def init(vid: Long): Double = eval(initE, vid, 0.0, 0.0, 0L, null)

  /** The message along an edge from a source holding `value`. */
  def msg(value: Double, weight: Double, srcdeg: Long): Double =
    eval(msgE, 0L, value, weight, srcdeg, null)

  /** apply(init(v), agg); `agg` is None for a vertex without in-edges. */
  def apply(vid: Long, agg: Option[Double]): Double =
    eval(applyE, vid, 0.0, 0.0, 0L, agg.getOrElse(null))
}
