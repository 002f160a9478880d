package repro.bench

import org.apache.spark.sql.SparkSession
import repro.algorithms.{PageRankProg, Sssp}
import repro.diff.CollectionExecutor
import repro.diff.CollectionExecutor.{CollectionRun, ViewStat}
import repro.graph.GraphGen

/** Table 2 (§5): Bellman-Ford and PageRank, diff-only vs scratch, on an
  * Orkut-analog random digraph with two artificial perturbation
  * collections — one with tiny difference sets, one with huge ones.
  *
  * Paper setup: 10M Orkut edges, 20 views, C_1K = ±500 edges/view,
  * C_3.5M = +2M/−1.5M edges/view. This repro (scale 1.0): 100K edges,
  * 8 views, C_small = ±150 (0.15%, like C_1K's 0.005% — small), C_large =
  * +20K/−15K (the paper's +20%/−15% fractions exactly).
  *
  * Each cell reports the wall-clock of the whole diff-only and scratch-only
  * collection runs, and two scratch-over-diff ratios over views ≥ 1 (view 0
  * runs from scratch in both modes): the work ratio (Σ vertices examined)
  * and the wall ratio (Σ per-view run time). Where the two run on the same
  * kernel, the wall ratio should track the work ratio. The µs-per-vertex
  * columns divide each mode's Σ run time by its Σ examined vertices over
  * views ≥ 1.
  */
object Table2 {

  final case class Cell(coll: String, algo: String, diffMs: Long, scratchMs: Long,
                        workRatio: Double, wallRatio: Double, diffUs: Double, scratchUs: Double)

  private def timed(run: => CollectionRun): (CollectionRun, Long) = {
    val t0 = System.nanoTime()
    val r = run
    (r, (System.nanoTime() - t0) / 1000000)
  }

  /** Scratch over diff of a per-view quantity, summed over views ≥ 1. */
  private def ratio(scratch: CollectionRun, diff: CollectionRun)(f: ViewStat => Double): Double = {
    val d = diff.stats.drop(1).map(f).sum
    if (d == 0) 0.0 else scratch.stats.drop(1).map(f).sum / d
  }

  /** µs of run time per examined vertex over views ≥ 1. */
  private def usPerVertex(run: CollectionRun): Double = {
    val work = run.stats.drop(1).map(_.workRows).sum
    if (work == 0) 0.0 else run.stats.drop(1).map(_.nanos).sum / 1e3 / work
  }

  def run(spark: SparkSession): Seq[String] = {
    BenchUtil.configure(spark)
    val s  = BenchUtil.scale
    val nV = math.max(100L, (20000 * s).toLong)
    val nE = math.max(500L, (100000 * s).toLong)
    val views = 8
    val g = GraphGen.randomGraph(spark, nV, nE)
    val edges = repro.diff.Engine.ckpt(g.topology)
    val src = BenchUtil.firstSource(edges)
    val verts = g.vertexIds

    val cSmall = BenchUtil.perturbationCollection(spark, "C-small", edges, nV, views,
      addN = math.max(5, (150 * s).toInt), delN = math.max(5, (150 * s).toInt), seed = 101)
    val cLarge = BenchUtil.perturbationCollection(spark, "C-large", edges, nV, views,
      addN = (nE * 0.20).toInt, delN = (nE * 0.15).toInt, seed = 202)

    val grid = for {
      (cName, coll) <- Seq("small" -> cSmall, "large" -> cLarge)
      (aName, prog) <- Seq("BF" -> Sssp(src), "PR" -> PageRankProg(10))
    } yield (cName, coll, aName, prog)

    // Run the first cell once untimed, so that its timed runs do not pay
    // the fresh JVM's JIT warm-up that later cells no longer pay.
    val (_, coll0, _, prog0) = grid.head
    CollectionExecutor.run(spark, prog0, verts, coll0, CollectionExecutor.DiffOnly)
    CollectionExecutor.run(spark, prog0, verts, coll0, CollectionExecutor.ScratchOnly)

    val cells = grid.map { case (cName, coll, aName, prog) =>
      val (d, dMs) = timed(CollectionExecutor.run(spark, prog, verts, coll, CollectionExecutor.DiffOnly))
      val (c, cMs) = timed(CollectionExecutor.run(spark, prog, verts, coll, CollectionExecutor.ScratchOnly))
      Cell(cName, aName, dMs, cMs, ratio(c, d)(_.workRows.toDouble), ratio(c, d)(_.nanos.toDouble),
           usPerVertex(d), usPerVertex(c))
    }

    val header = Seq(
      "== Table 2: diff-only vs scratch on perturbation collections ==",
      f"graph: |V|=$nV |E|=$nE views=$views (paper: Orkut 10M edges, 20 views)",
      f"${"coll"}%-8s ${"algo"}%-5s ${"diff-only"}%10s ${"scratch"}%10s ${"work_x"}%8s ${"wall_x"}%8s " +
      f"${"us/v diff"}%9s ${"us/v scr"}%9s   paper (diff, scratch)")
    val paper = Map(
      ("small", "BF") -> "1.4s, 13.5s", ("small", "PR") -> "66.5s, 136.2s",
      ("large", "BF") -> "13.0s, 25.7s", ("large", "PR") -> "281.9s, 193.2s")
    header ++ cells.map { c =>
      f"${c.coll}%-8s ${c.algo}%-5s ${BenchUtil.fmtMs(c.diffMs)}%10s ${BenchUtil.fmtMs(c.scratchMs)}%10s ${c.workRatio}%8.1f ${c.wallRatio}%8.1f " +
      f"${c.diffUs}%9.3f ${c.scratchUs}%9.3f   ${paper((c.coll, c.algo))}"
    }
  }
}
