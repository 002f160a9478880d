package perfbench

import scala.collection.mutable

/** Counts ops and failed ops. An op is one (program, mode, view) result or
  * one collection build; it fails when it throws or its check is false.
  */
final class Gate {
  var attempted = 0L
  var failed = 0L
  val notes = mutable.ArrayBuffer.empty[String]

  def op(what: String)(ok: => Boolean): Unit = {
    attempted += 1
    val good =
      try ok
      catch { case e: Exception => note(s"$what threw $e"); false }
    if (!good) { failed += 1; note(s"FAILED $what") }
  }

  def note(s: String): Unit = if (notes.size < 50) notes += s
}

object Check {
  /** Same vertex set and values equal within a relative tolerance
    * (infinities must match exactly).
    */
  def sameValues(got: Map[Long, Double], want: Map[Long, Double], tol: Double): Boolean =
    mismatches(got, want, tol).isEmpty

  /** Up to `limit` vertices whose values differ, as "vid: got vs want". */
  def mismatches(got: Map[Long, Double], want: Map[Long, Double], tol: Double,
                 limit: Int = 3): Seq[String] =
    (got.keySet ++ want.keySet).toSeq.sorted.iterator.filter { v =>
      (got.get(v), want.get(v)) match {
        case (Some(x), Some(y)) =>
          if (x.isInfinite || y.isInfinite) x != y
          else math.abs(x - y) > tol * math.max(1.0, math.abs(y))
        case _ => true
      }
    }.take(limit).map(v => s"$v: ${got.get(v)} vs ${want.get(v)}").toSeq
}

object Stats {
  def median(xs: Seq[Double]): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val n = s.size
      if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
    }
}
