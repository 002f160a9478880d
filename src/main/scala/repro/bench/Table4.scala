package repro.bench

import org.apache.spark.sql.SparkSession
import repro.graph.GraphGen
import repro.gvdl.Ast
import repro.views.ViewCollection

/** Table 4 (§7.4): number of difference-set entries and collection
  * creation time (CCT) for the Graphsurge ordering vs three random
  * orderings, on community-removal view collections ¹⁰C₅ (252 views) and
  * ⁷C₄ (35 views), over LiveJournal- and wiki-topcats-analog graphs.
  *
  * Each view removes one k-subset of the top-N ground-truth communities
  * (every edge incident to a removed community's nodes disappears) — the
  * perturbation-analysis application where no good manual order exists.
  * Each order is built three times; its CCT is the median of the three.
  */
object Table4 {

  /** Predicate: keep an edge iff neither endpoint is in a removed community. */
  private def removalPredicate(removed: Seq[Int]): Ast.Expr = {
    import Ast._
    removed.map[Expr] { c =>
      And(Cmp("!=", PropRef(SrcT, "comm"), NumLit(c)),
          Cmp("!=", PropRef(DstT, "comm"), NumLit(c)))
    }.reduce((a, b) => And(a, b))
  }

  /** All C(n,k) sorted k-subsets of 0..n-1. */
  def subsets(n: Int, k: Int): Seq[Seq[Int]] =
    (0 until n).combinations(k).map(_.toSeq).toSeq

  def views(n: Int, k: Int): Seq[(String, Ast.Expr)] =
    subsets(n, k).map(s => (s.mkString("-"), removalPredicate(s)))

  def run(spark: SparkSession): Seq[String] = {
    BenchUtil.configure(spark)
    val s = BenchUtil.scale
    def graph(nV: Long, nE: Long) = GraphGen.communityGraph(spark, nV, nE, nComm = 12)
    val datasets = Seq(
      "LJ-analog" -> graph((12000 * s).toLong max 500, (90000 * s).toLong max 2000),
      "WTC-analog" -> graph((6000 * s).toLong max 300, (45000 * s).toLong max 1000))
    val configs = Seq(("10C5", 10, 5), ("7C4", 7, 4))
    // Untimed: the first timed build (LJ-analog 10C5 Ord.) would otherwise
    // pay the fresh JVM's warm-up and the one collect of its graph's
    // resolved rows, which only a graph's first build runs.
    ViewCollection.build(datasets.head._2, "warm-up", views(10, 5), ViewCollection.GraphsurgeOrder)

    val out = Seq.newBuilder[String]
    out += "== Table 4: collection ordering - #Diffs and creation time (CCT) =="
    for ((dName, g) <- datasets; (cName, n, k) <- configs) {
      val vs = views(n, k)
      val strategies = Seq(
        "Ord." -> ViewCollection.GraphsurgeOrder,
        "R1" -> ViewCollection.RandomOrder(1),
        "R2" -> ViewCollection.RandomOrder(2),
        "R3" -> ViewCollection.RandomOrder(3))
      // The first build of a predicate set on its graph costs more than the
      // builds that repeat it (it compiles the atoms' projection, and a
      // graph's first build collects its resolved rows), so one build per
      // order would bias Ord.
      val built = strategies.map { case (sn, strat) =>
        val runs = Seq.fill(3)(ViewCollection.build(g, s"$dName-$cName-$sn", vs, strat))
        require(runs.map(_.totalDiffs).distinct.size == 1, s"$dName $cName $sn: #diffs differ")
        (sn, runs.head.totalDiffs, runs.map(_.cct.totalMs).sorted.apply(1), runs.head.cct.patterns)
      }
      val (_, ordDiffs, ordCct, patterns) = built.head
      out += f"-- $dName $cName (${vs.size} views, |E|=${g.numEdges}) --"
      out += "   " + built.map { case (sn, diffs, _, _) =>
        f"$sn: diffs=$diffs%,d (${diffs / ordDiffs.toDouble}%.1fx)"
      }.mkString("  ")
      out += "   " + built.map { case (sn, _, cct, _) =>
        f"$sn: cct=${BenchUtil.fmtMs(cct)} (${cct / math.max(1.0, ordCct.toDouble)}%.2fx)"
      }.mkString("  ") + s"  patterns=$patterns"
    }
    out += "paper: LJ 10C5 Ord 157M vs R 1.4-1.6B (9.5-10.3x); LJ 7C4 Ord 63M vs ~4x;"
    out += "       WTC 10C5 Ord 72M vs 1.0-1.2B (14.2-16.8x); WTC 7C4 Ord 45M vs 3.5x;"
    out += "       CCT overhead of ordering: 1.1x-1.7x over random (which skips the TSP step)"
    out.result()
  }
}
