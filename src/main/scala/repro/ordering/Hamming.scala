package repro.ordering

import org.apache.spark.sql.DataFrame
import repro.views.Ebm

/** Pairwise Hamming distances between EBM view columns (Algorithm 1's
  * distributed phase).
  *
  * Rather than comparing columns pairwise per row (O(k²) bit ops per row),
  * each partition accumulates the per-view popcounts n_i and co-occurrence
  * counts n_ij over set-bit indices; `treeReduce` sums the small k×k
  * matrices, and d(i,j) = n_i + n_j − 2·n_ij. The padded all-zero column of
  * CBMP₁.₅ appears as index 0 with d(0, j) = n_j; view j is index j+1.
  */
object Hamming {

  /** (k+1)×(k+1) distance matrix, index 0 = padded zero column. */
  def distances(ebm: DataFrame, k: Int): Array[Array[Double]] = {
    val bitsIdx = ebm.columns.indexOf("bits")
    require(bitsIdx >= 0, "EBM frame must have a `bits` column")
    val agg = ebm
      .select("bits")
      .rdd
      .mapPartitions { rows =>
        val co = Array.ofDim[Long](k, k) // co(i)(j) for i<=j
        val idx = new Array[Int](k)
        rows.foreach { r =>
          val bits = r.getSeq[Long](0)
          var m = 0
          var j = 0
          while (j < k) {
            if (Ebm.isSet(bits, j)) { idx(m) = j; m += 1 }
            j += 1
          }
          var a = 0
          while (a < m) {
            var b = a
            while (b < m) { co(idx(a))(idx(b)) += 1L; b += 1 }
            a += 1
          }
        }
        Iterator.single(co)
      }
      .treeReduce { (x, y) =>
        var i = 0
        while (i < k) {
          var j = 0
          while (j < k) { x(i)(j) += y(i)(j); j += 1 }
          i += 1
        }
        x
      }

    val d = Array.ofDim[Double](k + 1, k + 1)
    var i = 0
    while (i < k) {
      d(0)(i + 1) = agg(i)(i).toDouble
      d(i + 1)(0) = d(0)(i + 1)
      var j = i + 1
      while (j < k) {
        val h = agg(i)(i) + agg(j)(j) - 2L * agg(i)(j)
        d(i + 1)(j + 1) = h.toDouble
        d(j + 1)(i + 1) = h.toDouble
        j += 1
      }
      i += 1
    }
    d
  }
}
