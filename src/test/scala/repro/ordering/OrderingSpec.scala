package repro.ordering

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.ReproSpec
import repro.views.{DiffStream, Ebm}
import scala.util.Random

/** Collection ordering (§4): Hamming distances, the COP objective, the
  * NP-hardness reduction identity, and end-to-end ordering quality.
  */
class OrderingSpec extends ReproSpec {

  /** A local k-column boolean matrix as a packed EBM frame. */
  private def pack(m: Seq[Array[Boolean]], k: Int): DataFrame = {
    val df = {
      import spark.implicits._
      m.zipWithIndex.map { case (r, i) =>
        (i.toLong, r.zipWithIndex.filter(_._1).map(_._2).toSeq)
      }.toDF("eid", "ones")
    }
    Ebm.fromBoolColumns(df, (0 until k).map(j => array_contains(col("ones"), j))).frame(spark)
  }

  /** Random boolean matrix as both a local Seq and a packed EBM frame. */
  private def randomMatrix(rows: Int, k: Int, seed: Long, density: Double = 0.5)
      : (Seq[Array[Boolean]], DataFrame) = {
    val rnd = new Random(seed)
    val m = Seq.fill(rows)(Array.fill(k)(rnd.nextDouble() < density))
    (m, pack(m, k))
  }

  /** The padded (k+1)×(k+1) distance matrix, counted row by row. */
  private def bruteDistances(m: Seq[Array[Boolean]], k: Int): Seq[Seq[Double]] =
    Seq.tabulate(k + 1, k + 1) { (a, b) =>
      def cell(r: Array[Boolean], i: Int) = i > 0 && r(i - 1)
      m.count(r => cell(r, a) != cell(r, b)).toDouble
    }

  private def localDiffs(m: Seq[Array[Boolean]], order: Seq[Int]): Long =
    m.map { row =>
      var prev = false
      var c = 0L
      order.foreach { j => if (row(j) != prev) c += 1; prev = row(j) }
      c
    }.sum

  test("Hamming distance matrix matches brute force") {
    val (m, packed) = randomMatrix(200, 6, seed = 1)
    val d = Hamming.distances(packed, 6)
    for (i <- 0 until 6; j <- 0 until 6) {
      val brute = m.count(r => r(i) != r(j)).toDouble
      assert(d(i + 1)(j + 1) == brute, s"d($i,$j)")
    }
    for (j <- 0 until 6)
      assert(d(0)(j + 1) == m.count(_(j)).toDouble, s"zero-col distance to $j")
  }

  // k = 70 views span two 64-bit words. The repeated matrix has six
  // patterns ~80 rows each, so multiplicities carry the counts; in the
  // other every row is its own pattern.
  private val wide = 70
  private def wideMatrix(repeated: Boolean): Seq[Array[Boolean]] = {
    val rnd = new Random(17)
    def row() = Array.fill(wide)(rnd.nextBoolean())
    if (repeated) rnd.shuffle(Seq.fill(6)(row()).flatMap(p => Seq.fill(60 + rnd.nextInt(40))(p)))
    else Seq.fill(300)(row())
  }

  for ((label, repeated) <- Seq("heavily repeated patterns" -> true,
                                "every pattern distinct" -> false))
    test(s"Hamming.distances and countDiffs equal per-row counts at k = $wide ($label)") {
      val m = wideMatrix(repeated)
      val packed = pack(m, wide).localCheckpoint(true)
      val distinct = m.map(_.toSeq).distinct.size
      assert(distinct == (if (repeated) 6 else m.size))
      val patterns = Ebm.patterns(packed)
      assert(patterns.size == distinct && patterns.map(_._2).sum == m.size)
      assert(Hamming.distances(packed, wide).map(_.toSeq).toSeq == bruteDistances(m, wide))
      for (order <- (0 until wide) +: (1 to 3).map(CollectionOrderer.randomOrder(wide, _)))
        assert(DiffStream.countDiffs(packed, order) == localDiffs(m, order), s"order $order")
    }

  test("COP objective from distances equals direct diff count, any order") {
    val (m, packed) = randomMatrix(150, 7, seed = 2)
    val d = Hamming.distances(packed, 7)
    for (seed <- 1 to 4) {
      val order = CollectionOrderer.randomOrder(7, seed)
      val path = order.map(_ + 1)
      assert(d(0)(path.head) + Tsp.pathCost(d, path) == localDiffs(m, order).toDouble)
      assert(DiffStream.countDiffs(packed, order) == localDiffs(m, order))
    }
  }

  test("Theorem 4.1 reduction: ds(B_EBM, σ) is affine in cb(B_EBM, σ)") {
    // The exact per-row accounting: a row r with c consecutive 1-blocks has
    // 2c − [last cell is 1] diffs, so over the doubled matrix B_EBM = B ∪ Bᶜ
    // every (r, rᶜ) pair contributes 2(cb(r) + cb(rᶜ)) − 1 — i.e.
    // ds(B_EBM, σ) = 2·cb(B_EBM, σ) − rows(B). (The paper's proof states a
    // 4cb(r)−1 form per B01 row, which matches only when cb(rᶜ) = cb(r);
    // the affine relationship — what NP-hardness needs — holds regardless.)
    val rnd = new Random(3)
    for (_ <- 1 to 5) {
      val rows = 40
      val k = 8
      val b = Seq.fill(rows)(Array.fill(k)(rnd.nextBoolean()))
      val bEbm = b ++ b.map(_.map(!_)) // B over its complement
      val sigma = rnd.shuffle((0 until k).toVector)
      def cb(row: Array[Boolean]): Int = {
        var c = 0
        var prev = false
        sigma.foreach { j => if (row(j) && !prev) c += 1; prev = row(j) }
        c
      }
      val cbEbm = bEbm.map(cb).sum
      val ds = localDiffs(bEbm, sigma)
      assert(ds == 2L * cbEbm - rows, s"ds=$ds cb(B_EBM)=$cbEbm rows=$rows")
    }
  }

  test("optimizer beats random orders on structured (community-like) matrices") {
    // Views = k-subsets removed: nearby subsets differ little; a good order
    // exists and random orders are much worse.
    val k = 10
    val rnd = new Random(5)
    val rows = 600
    // Each row (edge) belongs to a random "community" 0..4; view j removes
    // communities {j, j+1 mod 5}: consecutive views overlap.
    val comm = Seq.fill(rows)(rnd.nextInt(5))
    val m = comm.map { c => Array.tabulate(k)(j => !(j % 5 == c || (j + 1) % 5 == c)) }
    val d = Hamming.distances(pack(m, k), k)
    val ours = CollectionOrderer.fromDistances(d)
    assert(math.abs(ours.predictedDiffs - localDiffs(m, ours.order).toDouble) < 1e-9)
    val randomAvg = (1 to 3).map(s =>
      localDiffs(m, CollectionOrderer.randomOrder(k, s))).sum / 3.0
    assert(ours.predictedDiffs <= randomAvg,
           s"ordered=${ours.predictedDiffs} random=$randomAvg")
  }

  test("ordering is a permutation and respects inclusion chains") {
    val rnd = new Random(11)
    val rows = 400
    val thresholds = Seq(5, 10, 15, 20, 25, 30)
    val vals = Seq.fill(rows)(rnd.nextInt(35))
    val m = vals.map(v => thresholds.map(t => v <= t).toArray)
    val d = Hamming.distances(pack(m, thresholds.size), thresholds.size)
    val res = CollectionOrderer.fromDistances(d)
    assert(res.order.sorted == thresholds.indices)
    // For a nested chain the optimal order is monotone; our heuristic should
    // find a monotone (or reverse-monotone) order.
    val inc = res.order == thresholds.indices.toSeq
    val dec = res.order == thresholds.indices.reverse
    val optimal = localDiffs(m, thresholds.indices)
    assert(inc || dec || localDiffs(m, res.order) <= optimal * 3,
           s"order ${res.order} has ${localDiffs(m, res.order)} diffs vs optimal $optimal")
  }
}
