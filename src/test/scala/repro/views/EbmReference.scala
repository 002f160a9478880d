package repro.views

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Per-row readings of a packed EBM, for tests: view membership straight
  * from the EBM columns, and the difference stream built edge by edge,
  * which the pattern-memoized [[DiffStream.reader]] must reproduce.
  */
object EbmReference {

  /** Test bit j of a packed `bits` column. */
  private def bitSet(bits: Column, j: Int): Column =
    bits.getItem(j / 64).bitwiseAND(lit(1L << (j % 64))) =!= 0L

  /** View j (original index, before any reordering), straight from its EBM
    * column.
    */
  def viewEdges(ebm: DataFrame, j: Int): DataFrame =
    ebm.where(bitSet(col("bits"), j)).select("eid", "src", "dst", "weight")

  /** Per-view edge counts (popcount of each column), as a driver array. */
  def viewSizes(ebm: DataFrame, k: Int): Array[Long] = {
    val sums = (0 until k).map(j => sum(bitSet(col("bits"), j).cast("long")).as(s"v$j"))
    val row = ebm.agg(sums.head, sums.tail: _*).collect()(0)
    (0 until k).map(j => if (row.isNullAt(j)) 0L else row.getLong(j)).toArray
  }

  /** Flips of one row along `ord` from an implicit leading 0, t ascending. */
  private def flips(bits: Seq[Long], ord: Array[Int]): Seq[(Int, Int)] = {
    val out = Seq.newBuilder[(Int, Int)]
    var prev = false
    for (t <- ord.indices) {
      val cur = Ebm.isSet(bits, ord(t))
      if (cur != prev) out += ((t, if (cur) 1 else -1))
      prev = cur
    }
    out.result()
  }

  /** The difference stream built edge by edge: a `udf` lists each row's
    * flips and `explode` emits them, so rows come per edge in EBM order
    * with t ascending.
    */
  def stream(ebm: DataFrame, order: Seq[Int]): DataFrame = {
    val ord = order.toArray
    val transitions = udf((bits: Seq[Long]) => flips(bits, ord))
    ebm
      .withColumn("__tr", explode(transitions(col("bits"))))
      .select(col("__tr._1").as("t"), col("eid"), col("src"), col("dst"),
              col("weight"), col("__tr._2").as("diff"))
  }
}
