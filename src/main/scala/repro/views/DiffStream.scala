package repro.views

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{IntegerType, StructField, StructType}
import scala.collection.mutable

/** Edge difference stream (§3.2, step 3).
  *
  * Given the (possibly reordered) EBM, each edge contributes +1 at every
  * position where its membership flips 0→1 and −1 where it flips 1→0,
  * scanning the ordered view sequence left to right with an implicit
  * leading 0 — exactly the DD difference-set semantics
  * δC_t = GV_t − ⋃_{s&lt;t} δC_s. An edge's flips depend only on its bits,
  * so they are listed once per distinct bit pattern ([[transitions]]): the
  * stream's length is a sum over [[Ebm.patterns]], and the stream itself is
  * one `mapPartitions` that memoizes each pattern's flips within a
  * partition (embarrassingly parallel, like the paper's TD dataflow).
  */
object DiffStream {

  /** Difference stream `t, eid, src, dst, weight, diff(+1|-1)` for the EBM
    * under column ordering `order` (position t holds original view
    * `order(t)`): per edge in EBM order, its flips with t ascending. A lazy
    * frame; every read of it runs over the EBM again.
    */
  def compute(ebm: DataFrame, order: Seq[Int]): DataFrame = {
    val ord = order.toIndexedSeq
    val in = ebm.select("eid", "src", "dst", "weight", "bits")
    val rows = in.rdd.mapPartitions { it =>
      val memo = mutable.HashMap.empty[Seq[Long], Seq[(Int, Int)]]
      it.flatMap { r =>
        val bits = r.getSeq[Long](4)
        memo.getOrElseUpdate(bits, transitions(bits, ord)).iterator.map { case (t, d) =>
          Row(t, r.get(0), r.get(1), r.get(2), r.get(3), d)
        }
      }
    }
    val schema = StructType(
      StructField("t", IntegerType, nullable = false) +: in.schema.fields.take(4) :+
      StructField("diff", IntegerType, nullable = false))
    ebm.sparkSession.createDataFrame(rows, schema)
  }

  /** Total number of differences Σ_t |δC_t| for the EBM under `order` —
    * the COP objective (Definition 1). One Spark job (the pattern
    * histogram); the stream is not materialized.
    */
  def countDiffs(ebm: DataFrame, order: Seq[Int]): Long = count(Ebm.patterns(ebm), order)

  /** Σ_t |δC_t| under `order` from the EBM's distinct bit patterns and their
    * multiplicities, on the driver.
    */
  def count(patterns: Seq[(Seq[Long], Long)], order: Seq[Int]): Long = {
    val ord = order.toIndexedSeq
    patterns.map { case (bits, n) => n * transitions(bits, ord).size }.sum
  }

  /** The flips of one bit pattern along `ord`, from an implicit leading 0:
    * `(t, +1)` where membership turns on at position t, `(t, -1)` where it
    * turns off, t ascending.
    */
  def transitions(bits: Seq[Long], ord: IndexedSeq[Int]): Seq[(Int, Int)] = {
    val out = Vector.newBuilder[(Int, Int)]
    var prev = false
    var t = 0
    while (t < ord.length) {
      val cur = Ebm.isSet(bits, ord(t))
      if (cur != prev) out += ((t, if (cur) 1 else -1))
      prev = cur
      t += 1
    }
    out.result()
  }
}
