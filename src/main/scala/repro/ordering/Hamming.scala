package repro.ordering

import org.apache.spark.sql.DataFrame
import repro.views.Ebm

/** Pairwise Hamming distances between EBM view columns (Algorithm 1's
  * distributed phase).
  *
  * Rather than comparing columns pairwise per row (O(k²) bit ops per row),
  * the per-view popcounts n_i and co-occurrence counts n_ij are summed over
  * set-bit indices, and d(i,j) = n_i + n_j − 2·n_ij. Edges with equal bits
  * add equal counts, so each distinct pattern of the EBM's pattern table
  * (a build's [[repro.views.Ebm.Columns]], or [[Ebm.patterns]] of an
  * exported frame's `bits`) is counted once, times its multiplicity, on the
  * driver. The padded all-zero column of CBMP₁.₅ appears as index 0 with
  * d(0, j) = n_j; view j is index j+1.
  */
object Hamming {

  /** (k+1)×(k+1) distance matrix, index 0 = padded zero column, from the
    * pattern table of the EBM frame `ebm`, which only its `bits` enter.
    */
  def distances(ebm: DataFrame, k: Int): Array[Array[Double]] =
    fromPatterns(Ebm.patterns(ebm), k)

  /** (k+1)×(k+1) distance matrix from an EBM's distinct bit patterns and
    * their multiplicities.
    */
  def fromPatterns(patterns: Seq[(Seq[Long], Long)], k: Int): Array[Array[Double]] = {
    val co = Array.ofDim[Long](k, k) // co(i)(j) for i<=j
    val idx = new Array[Int](k)
    for ((bits, n) <- patterns) {
      var m = 0
      var j = 0
      while (j < k) {
        if (Ebm.isSet(bits, j)) { idx(m) = j; m += 1 }
        j += 1
      }
      var a = 0
      while (a < m) {
        var b = a
        while (b < m) { co(idx(a))(idx(b)) += n; b += 1 }
        a += 1
      }
    }

    val d = Array.ofDim[Double](k + 1, k + 1)
    var i = 0
    while (i < k) {
      d(0)(i + 1) = co(i)(i).toDouble
      d(i + 1)(0) = d(0)(i + 1)
      var j = i + 1
      while (j < k) {
        val h = co(i)(i) + co(j)(j) - 2L * co(i)(j)
        d(i + 1)(j + 1) = h.toDouble
        d(j + 1)(i + 1) = h.toDouble
        j += 1
      }
      i += 1
    }
    d
  }
}
