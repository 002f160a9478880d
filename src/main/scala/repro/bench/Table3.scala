package repro.bench

import org.apache.spark.sql.SparkSession
import repro.algorithms.{Bfs, PageRankProg, Scc, Wcc}
import repro.diff.{Analytic, CollectionExecutor}
import repro.graph.GraphGen
import repro.gvdl.Parser
import repro.views.ViewCollection

/** Table 3 (§7.3): WCC, BFS, SCC, PR × {diff, scratch, adaptive} on three
  * citation-graph view collections with different addition/deletion mixes.
  *
  * Paper setup: Semantic Scholar (605M edges) with C_sl (16 sliding
  * decades), C_ex-sh-sl (expand/shrink/slide year windows), C_aut (5 year
  * windows × 5 author-count windows = 25 views). This repro: synthetic
  * citation analog (DESIGN.md), C_sl slides the decade by 10 years
  * (5 views), C_ex-sh-sl expands, shrinks and slides a year window in
  * 2–3-year steps (7 views), C_aut uses a 2×3 year × author-count grid
  * (6 views) — smaller view counts keep the 36-run sweep tractable at
  * laptop scale while preserving each collection's addition/deletion
  * structure.
  */
object Table3 {

  private def yearPred(a: Int, b: Int): String =
    s"src.year >= $a and src.year <= $b and dst.year >= $a and dst.year <= $b"

  def collections(spark: SparkSession, g: repro.graph.PropertyGraph)
      : Seq[(String, ViewCollection)] = {
    def build(name: String, views: Seq[(String, String)]): (String, ViewCollection) =
      name -> ViewCollection.build(
        g, name, views.map { case (n, p) => (n, Parser.parsePredicate(p)) })

    val sl = build("C_sl",
      (0 until 5).map { i =>
        val a = 1966 + 10 * i
        val b = math.min(2020, a + 9)
        (s"[$a,$b]", yearPred(a, b))
      })

    val exShSl = build("C_ex-sh-sl",
      (0 to 2).map { i => (s"ex[1995,${2000 + 2 * i}]", yearPred(1995, 2000 + 2 * i)) } ++
      (1 to 2).map { i => (s"sh[${1995 + 3 * i},2005]", yearPred(1995 + 3 * i, 2005)) } ++
      (1 to 2).map { i => (s"sl[${2001 + 3 * i},${2005 + 3 * i}]", yearPred(2001 + 3 * i, 2005 + 3 * i)) })

    val aut = build("C_aut",
      for {
        (ya, yb) <- Seq((2001, 2005), (2006, 2010))
        amax     <- Seq(5, 10, 15)
      } yield (s"[$ya,$yb]x[0,$amax]",
               s"${yearPred(ya, yb)} and src.authors <= $amax and dst.authors <= $amax"))

    Seq(sl, exShSl, aut)
  }

  def run(spark: SparkSession): Seq[String] = {
    BenchUtil.configure(spark)
    val s  = BenchUtil.scale
    val nV = math.max(200L, (8000 * s).toLong)
    val nE = math.max(1000L, (30000 * s).toLong)
    val g  = GraphGen.citationGraph(spark, nV, nE)
    val src = BenchUtil.firstSource(g.edges)
    val verts = g.vertexIds
    val colls = collections(spark, g)

    val programs: Seq[(String, Analytic)] = Seq(
      "WCC" -> Wcc(), "BFS" -> Bfs(src), "SCC" -> Scc, "PR" -> PageRankProg(5))
    val modes = Seq("diff" -> CollectionExecutor.DiffOnly,
                    "scratch" -> CollectionExecutor.ScratchOnly,
                    "adapt" -> CollectionExecutor.Adaptive())

    val out = Seq.newBuilder[String]
    out += "== Table 3: adaptive splitting on citation view collections =="
    out += f"graph: |V|=$nV |E|=$nE (paper: Semantic Scholar 172M/605M)"
    out += f"${"algo"}%-5s ${"mode"}%-8s ${colls.map(_._1.padTo(12, ' ')).mkString}"
    for ((aName, prog) <- programs; (mName, mode) <- modes) {
      val times = colls.map { case (_, coll) =>
        BenchUtil.fmtMs(CollectionExecutor.run(spark, prog, verts, coll, mode).totalMillis)
      }
      out += f"$aName%-5s $mName%-8s ${times.map(_.padTo(12, ' ')).mkString}"
    }
    out += "paper (C_sl, C_ex-sh-sl, C_aut) for reference:"
    out += "  WCC diff 298.6/147.6/77.0  scratch 147.6/116.2/95.4  adapt 110.9/135.4/41.7"
    out += "  BFS diff 74.8/-/30.5       scratch 114.9/-/33.5      adapt 61.2/-/18.9"
    out += "  SCC diff OOM/658.7/-       scratch 607.3/519.2/-     adapt 594.6/539.7/-"
    out += "  PR  diff 198.9/-/-         scratch 161.3/-/-         adapt 120.7/-/-"
    out.result()
  }
}
