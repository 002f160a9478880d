package repro.views

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Edge difference stream (§3.2, step 3).
  *
  * Given the (possibly reordered) EBM, each edge contributes +1 at every
  * position where its membership flips 0→1 and −1 where it flips 1→0,
  * scanning the ordered view sequence left to right with an implicit
  * leading 0 — exactly the DD difference-set semantics
  * δC_t = GV_t − ⋃_{s&lt;t} δC_s. Per-edge independence makes this one
  * `flatMap` (embarrassingly parallel, like the paper's TD dataflow).
  */
object DiffStream {

  /** Difference stream `t, eid, src, dst, weight, diff(+1|-1)` for the EBM
    * under column ordering `order` (position t holds original view
    * `order(t)`).
    */
  def compute(ebm: DataFrame, order: Seq[Int]): DataFrame = {
    val ord = order.toArray
    val transitions = udf { (bits: Seq[Long]) =>
      val out = Seq.newBuilder[(Int, Int)]
      scan(bits, ord)((t, d) => out += ((t, d)))
      out.result()
    }
    ebm
      .withColumn("__tr", explode(transitions(col("bits"))))
      .select(col("__tr._1").as("t"), col("eid"), col("src"), col("dst"),
              col("weight"), col("__tr._2").as("diff"))
  }

  /** Total number of differences Σ_t |δC_t| for the EBM under `order` —
    * the COP objective (Definition 1). Computed without materializing the
    * stream.
    */
  def countDiffs(ebm: DataFrame, order: Seq[Int]): Long = {
    val ord = order.toArray
    val nTrans = udf { (bits: Seq[Long]) =>
      var c = 0
      scan(bits, ord)((_, _) => c += 1)
      c
    }
    ebm.select(sum(nTrans(col("bits"))).as("n")).collect()(0).getLong(0)
  }

  /** Scan one EBM row's membership along `ord`, from an implicit leading 0,
    * calling `flip(t, diff)` at every position t where it changes.
    */
  private def scan(bits: Seq[Long], ord: Array[Int])(flip: (Int, Int) => Unit): Unit = {
    var prev = false
    var t = 0
    while (t < ord.length) {
      val cur = Ebm.isSet(bits, ord(t))
      if (cur != prev) flip(t, if (cur) 1 else -1)
      prev = cur
      t += 1
    }
  }
}
