package repro.views

import org.apache.spark.sql.DataFrame
import repro.diff.EdgeArrangement.Delta

/** Edge difference stream (§3.2, step 3).
  *
  * Given the (possibly reordered) EBM, each edge contributes +1 at every
  * position where its membership flips 0→1 and −1 where it flips 1→0,
  * scanning the ordered view sequence left to right with an implicit
  * leading 0 — exactly the DD difference-set semantics
  * δC_t = GV_t − ⋃_{s&lt;t} δC_s. An edge's flips depend only on its bits,
  * so they are listed once per distinct bit pattern ([[transitions]]): the
  * stream's length is a sum over the EBM's pattern table, and the stream
  * itself is expanded on the driver, where the analytics read it, from the
  * EBM's driver columns ([[Ebm.Columns]]) with no Spark planning. Only
  * [[countDiffs]] takes an EBM frame, an export, and it reads only the
  * frame's `bits`.
  */
object DiffStream {

  /** The difference stream of the driver EBM `ebm` under column ordering
    * `order` (position t holds original view `order(t)`): element t is
    * δC_t, its rows per edge in EBM order. Each pattern's flips are listed
    * once; no Spark job runs.
    */
  def deltas(ebm: Ebm.Columns, order: Seq[Int]): IndexedSeq[Seq[Delta]] = {
    val ord = order.toIndexedSeq
    val flips = ebm.bits.map(transitions(_, ord))
    val byT = IndexedSeq.fill(ord.size)(Vector.newBuilder[Delta])
    var i = 0
    while (i < ebm.size) {
      flips(ebm.pattern(i)).foreach { case (t, d) =>
        byT(t) += Delta(ebm.eid(i), ebm.src(i), ebm.dst(i), ebm.weight(i), d)
      }
      i += 1
    }
    byT.map(_.result())
  }

  /** Total number of differences Σ_t |δC_t| for the EBM frame under
    * `order` — the COP objective (Definition 1), from the pattern table of
    * its `bits` ([[Ebm.patterns]]); the stream is not materialized.
    */
  def countDiffs(ebm: DataFrame, order: Seq[Int]): Long = count(Ebm.patterns(ebm), order)

  /** Σ_t |δC_t| under `order` from the EBM's pattern table — its distinct
    * bit patterns and their multiplicities — on the driver.
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
