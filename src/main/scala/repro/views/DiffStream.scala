package repro.views

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import repro.diff.EdgeArrangement.Delta
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
  * expanded on the driver, where the analytics read it, from the EBM rows.
  * On a collection's EBM, a local frame on the driver, neither starts a
  * Spark job.
  */
object DiffStream {

  /** The difference stream on the driver for the EBM under column ordering
    * `order` (position t holds original view `order(t)`): element t is
    * δC_t, its rows per edge in EBM order. It reads the EBM's |E| rows
    * `eid, src, dst, weight, bits` (a Spark job unless the frame is local);
    * each distinct pattern's flips are listed once.
    */
  def deltas(ebm: DataFrame, order: Seq[Int]): IndexedSeq[Seq[Delta]] = {
    val ord = order.toIndexedSeq
    val byT = IndexedSeq.fill(ord.size)(Vector.newBuilder[Delta])
    val memo = mutable.HashMap.empty[Seq[Long], Seq[(Int, Int)]]
    ebm.select(col("eid").cast("long"), col("src").cast("long"), col("dst").cast("long"),
               col("weight").cast("double"), col("bits"))
      .collect()
      .foreach { r =>
        val bits = r.getSeq[Long](4)
        memo.getOrElseUpdate(bits, transitions(bits, ord)).foreach { case (t, d) =>
          byT(t) += Delta(r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3), d)
        }
      }
    byT.map(_.result())
  }

  /** Total number of differences Σ_t |δC_t| for the EBM under `order` —
    * the COP objective (Definition 1), from the pattern histogram; the
    * stream is not materialized.
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
