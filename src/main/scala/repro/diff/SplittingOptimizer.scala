package repro.diff

import scala.collection.mutable.ArrayBuffer

/** Adaptive collection-splitting optimizer (§5).
  *
  * Observes, at runtime, (|GV_i|, scratch-time) points for views run from
  * scratch and (|δC_i|, diff-time) points for views run differentially, in
  * any one unit of time (the collection loop feeds it nanoseconds),
  * fits one simple linear model per mode, and — per batch of ℓ views —
  * predicts both times for the upcoming view and picks the cheaper mode.
  * The paper bootstraps by forcing view 1 from scratch and view 2
  * differentially; so does this implementation.
  */
final class SplittingOptimizer(batchSize: Int = 1) {
  require(batchSize >= 1, "batch size must be positive")

  private val scratchObs = ArrayBuffer.empty[(Double, Double)] // (|GV|, time)
  private val diffObs    = ArrayBuffer.empty[(Double, Double)] // (|δC|, time)
  private var pending: List[Boolean] = Nil // decisions already made for the batch

  /** Record an observed view execution; `time` in any unit, the same for
    * every call to one optimizer.
    */
  def observe(ranDifferentially: Boolean, size: Long, time: Long): Unit = {
    val obs = (size.toDouble, time.toDouble)
    if (ranDifferentially) diffObs += obs else scratchObs += obs
  }

  /** Least-squares fit time = a·size + b; degenerate inputs fall back to a
    * ratio through the origin, then to the mean.
    */
  private def fit(obs: Seq[(Double, Double)]): Double => Double = {
    val n = obs.size
    if (n == 0) return _ => Double.MaxValue // no information: never preferred
    val mx = obs.map(_._1).sum / n
    val my = obs.map(_._2).sum / n
    val sxx = obs.map { case (x, _) => (x - mx) * (x - mx) }.sum
    if (sxx < 1e-9) { _ => my }
    else {
      val sxy = obs.map { case (x, y) => (x - mx) * (y - my) }.sum
      val a = sxy / sxx
      val b = my - a * mx
      x => math.max(0.0, a * x + b)
    }
  }

  /** Predicted scratch time for a view of `size` edges. */
  def predictScratch(size: Long): Double = fit(scratchObs.toSeq)(size.toDouble)

  /** Predicted differential time for a difference set of `size`. */
  def predictDiff(size: Long): Double = fit(diffObs.toSeq)(size.toDouble)

  /** Decide whether view `t` runs differentially.
    *
    * Decisions are made `batchSize` views at a time (the paper's ℓ,
    * default 10 there; configurable here because laptop-scale collections
    * are short): one prediction fixes the mode for the next ℓ views.
    */
  def decide(t: Int, viewSize: Long, diffSize: Long): Boolean = {
    if (t == 0) { pending = Nil; return false } // bootstrap: scratch
    if (t == 1) { pending = Nil; return true }  // bootstrap: differential
    pending match {
      case head :: tail =>
        pending = tail
        head
      case Nil =>
        val diffWins = predictDiff(diffSize) <= predictScratch(viewSize)
        pending = List.fill(batchSize - 1)(diffWins)
        diffWins
    }
  }
}
