package repro.views

import org.apache.spark.sql.DataFrame

/** Edge difference stream (§3.2, step 3).
  *
  * Given the (possibly reordered) EBM, each edge contributes +1 at every
  * position where its membership flips 0→1 and −1 where it flips 1→0,
  * scanning the ordered view sequence left to right with an implicit
  * leading 0 — exactly the DD difference-set semantics
  * δC_t = GV_t − ⋃_{s&lt;t} δC_s. An edge's flips depend only on its bits,
  * so they are listed once per distinct bit pattern ([[transitions]]): the
  * stream's length is a sum over the pattern table, and δC_t is a [[Slice]]
  * of the EBM's driver rows read by a [[reader]]. Only [[countDiffs]] reads
  * an EBM frame (an export), and only its `bits`.
  */
object DiffStream {

  /** δC_t as EBM rows in ascending (EBM) order, which puts an explicit
    * stream's deletions first. A difference is one `Int`: its row shifted
    * left by one, the low bit set for an addition (so at most 2^30 rows).
    */
  final class Slice private[views] (val columns: Ebm.Columns, codes: Array[Int]) {
    def size: Int = codes.length
    def row(k: Int): Int = codes(k) >>> 1
    /** +1 where the k-th difference adds its row, −1 where it deletes it. */
    def diff(k: Int): Int = if ((codes(k) & 1) != 0) 1 else -1
    def src(k: Int): Long = columns.src(row(k))
    def dst(k: Int): Long = columns.dst(row(k))
    def weight(k: Int): Double = columns.weight(row(k))
  }

  /** The stream of the driver EBM `ebm` under `order` (position t holds
    * view `order(t)`), read a position at a time with no Spark job. Rows
    * are grouped by pattern once ([[group]]) and each position lists the
    * patterns that flip there with their sign: δC_t costs O(|δC_t|) plus the
    * sort merging its patterns' ascending runs, one `Int` a difference.
    */
  def reader(ebm: Ebm.Columns, order: IndexedSeq[Int]): Int => Slice = {
    val (start, rows) = group(ebm.pattern, ebm.bits.size)
    // Per position, the patterns that flip there, coded as a slice codes a row.
    val flips = (for ((bits, p) <- ebm.bits.zipWithIndex; (t, d) <- transitions(bits, order))
      yield (t, (p << 1) | (if (d > 0) 1 else 0))).groupMap(_._1)(_._2).withDefaultValue(Vector.empty)
    def slots(f: Int) = start(f >> 1) until start((f >> 1) + 1) // f's pattern's rows
    t => {
      val codes = new Array[Int](flips(t).iterator.map(slots(_).size).sum)
      var k = 0
      for (f <- flips(t); i <- slots(f)) { codes(k) = (rows(i) << 1) | (f & 1); k += 1 }
      java.util.Arrays.sort(codes)
      new Slice(ebm, codes)
    }
  }

  /** `(start, slots)`: the slots of `ids` (values below `n`) grouped by value
    * in one counting sort, v's ascending in `slots(start(v) until start(v + 1))`.
    */
  def group(ids: Array[Int], n: Int): (Array[Int], Array[Int]) = {
    val (start, slots) = (new Array[Int](n + 1), new Array[Int](ids.length))
    ids.foreach(v => start(v + 1) += 1)
    for (v <- 0 until n) start(v + 1) += start(v)
    val fill = start.clone()
    for (k <- ids.indices) { slots(fill(ids(k))) = k; fill(ids(k)) += 1 }
    (start, slots)
  }

  /** Total number of differences Σ_t |δC_t| for the EBM frame under
    * `order` — the COP objective (Definition 1), from the pattern table of
    * its `bits` ([[Ebm.patterns]]); the stream is not materialized.
    */
  def countDiffs(ebm: DataFrame, order: Seq[Int]): Long = count(Ebm.patterns(ebm), order)

  /** Σ_t |δC_t| under `order` from the EBM's pattern table — its distinct
    * bit patterns and their multiplicities — on the driver.
    */
  def count(patterns: Seq[(Seq[Long], Long)], order: Seq[Int]): Long =
    patterns.map { case (bits, n) => n * transitions(bits, order.toIndexedSeq).size }.sum

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
