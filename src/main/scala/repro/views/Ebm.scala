package repro.views

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.graph.PropertyGraph
import repro.gvdl.{Ast, Compiler}

/** Edge Boolean Matrix (§3.2, step 1).
  *
  * For each edge e and each view predicate p_j, the EBM records whether e
  * satisfies p_j. Rows are edges; the k view columns are packed into
  * ⌈k/64⌉ longs per row (column `bits`), so a 252-view collection costs 4
  * longs per edge. The computation is a single Catalyst projection —
  * embarrassingly parallel, like the paper's TD dataflow.
  */
object Ebm {

  /** Number of 64-bit words needed for k views. */
  def words(k: Int): Int = (k + 63) / 64

  /** Compute the EBM frame: `eid, src, dst, weight, bits: array<long>`.
    * Bit j (word j/64, offset j%64) is view j in the *given* (pre-ordering)
    * view order.
    */
  def compute(graph: PropertyGraph, predicates: Seq[Ast.Expr]): DataFrame = {
    val resolved = graph.resolved
    val columns = resolved.columns.toSeq
    val cols = predicates.map(Compiler.edgePredicate(_, columns))
    fromBoolColumns(resolved, cols)
      .select(col("eid"), col("src"), col("dst"),
              coalesce(col("weight"), lit(1.0)).as("weight"), col("bits"))
  }

  /** Pack arbitrary boolean columns of `df` into a `bits` array column. */
  def fromBoolColumns(df: DataFrame, predicates: Seq[Column]): DataFrame = {
    val k = predicates.size
    val wordCols = (0 until words(k)).map { w =>
      val inWord = predicates.zipWithIndex
        .filter { case (_, j) => j / 64 == w }
        .map { case (p, j) => when(p, lit(1L << (j % 64))).otherwise(lit(0L)) }
      inWord.reduce((a, b) => a.bitwiseOR(b))
    }
    val withWeight =
      if (df.columns.contains("weight")) df else df.withColumn("weight", lit(1.0))
    withWeight.withColumn("bits", array(wordCols: _*))
  }

  /** Test bit j of a packed `bits` column. */
  def bitSet(bits: Column, j: Int): Column =
    bits.getItem(j / 64).bitwiseAND(lit(1L << (j % 64))) =!= 0L

  /** Test bit j of one row's packed `bits`. */
  def isSet(bits: Seq[Long], j: Int): Boolean = (bits(j / 64) & (1L << (j % 64))) != 0L

  /** Materialize view j (original index, before any reordering). */
  def viewEdges(ebm: DataFrame, j: Int): DataFrame =
    ebm.where(bitSet(col("bits"), j)).select("eid", "src", "dst", "weight")

  /** Per-view edge counts (popcount of each column), as a driver array. */
  def viewSizes(ebm: DataFrame, k: Int): Array[Long] = {
    val sums = (0 until k).map(j => sum(bitSet(col("bits"), j).cast("long")).as(s"v$j"))
    val row = ebm.agg(sums.head, sums.tail: _*).collect()(0)
    (0 until k).map(j => if (row.isNullAt(j)) 0L else row.getLong(j)).toArray
  }
}
