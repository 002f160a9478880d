package repro.ordering

/** Collection ordering optimizer (§4, Algorithm 1).
  *
  * Pads the EBM with an all-zero column (index 0 of the distance matrix),
  * computes the pairwise-Hamming clique from the EBM's distinct bit
  * patterns ([[Hamming]]), runs the TSP heuristic, cuts the cycle at the
  * zero column, and orients the resulting path in the direction with the
  * smaller total difference count.
  *
  * The COP objective of an ordering σ equals the path cost starting at the
  * zero column: |δC_1| = popcount(first column) = d(0, σ(1)), and
  * |δC_t| = Hamming(σ(t−1), σ(t)) for t &gt; 1 — so both cut directions are
  * scored directly from the distance matrix.
  */
object CollectionOrderer {

  /** Result: the ordering (position → original view index) and its
    * predicted total diff count Σ_t |δC_t|.
    */
  final case class Ordering(order: Seq[Int], predictedDiffs: Double)

  /** Order from a precomputed (k+1)×(k+1) padded distance matrix. */
  def fromDistances(d: Array[Array[Double]]): Ordering = {
    val k = d.length - 1
    if (k <= 1) return Ordering((0 until k), if (k == 1) d(0)(1) else 0.0)
    val cycle = Tsp.tour(d)
    // Rotate so the zero column leads, then drop it: the remainder is the
    // view path; try both orientations.
    val zi      = cycle.indexOf(0)
    val rotated = cycle.drop(zi) ++ cycle.take(zi) // starts with 0
    val fwd     = rotated.drop(1)
    val bwd     = fwd.reverse
    val cost: Seq[Int] => Double = p => d(0)(p.head) + Tsp.pathCost(d, p)
    val (path, c) =
      if (cost(fwd) <= cost(bwd)) (fwd, cost(fwd)) else (bwd, cost(bwd))
    Ordering(path.map(_ - 1), c)
  }

  /** A seeded random ordering (the Table 4 baseline). */
  def randomOrder(k: Int, seed: Long): Seq[Int] =
    new scala.util.Random(seed).shuffle((0 until k).toVector)
}
