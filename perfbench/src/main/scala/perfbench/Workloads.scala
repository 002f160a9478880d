package perfbench

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.algorithms.{Reference, Sssp}
import repro.bench.BenchUtil
import repro.diff.{CollectionExecutor, Engine, SplittingOptimizer, VertexProgram}
import repro.diff.CollectionExecutor.{CollectionRun, DiffOnly, Mode, ScratchOnly, ViewStat}
import repro.graph.{GraphGen, PropertyGraph}
import repro.gvdl.Parser
import repro.ordering.{CollectionOrderer, Hamming}
import repro.views.{DiffStream, ViewCollection}

import scala.collection.mutable

/** What every workload shares: the session, the tracer, the correctness
  * gate, and the metrics of the pass being run.
  */
final class Ctx(val spark: SparkSession, val tracer: Tracer, val gate: Gate) {
  /** Metrics of the current pass, name → value. */
  var m: mutable.LinkedHashMap[String, Double] = mutable.LinkedHashMap.empty
  /** Whether the current pass is traced (extra ordering calls, spans). */
  def traced: Boolean = tracer.enabled
}

/** One benchmark workload. `setUp` generates and materializes the inputs
  * from the seed; `pass` is one closed-loop analyst session over them: the
  * collection is built, then each whole-collection run is issued after the
  * previous one returns.
  */
trait Workload {
  def setUp(ctx: Ctx): Unit
  def pass(ctx: Ctx): Unit
  /** |V|, |E|, view count and the other input facts, for the run record. */
  def provenance: Seq[(String, Any)]
}

object Workload {
  val Names: Seq[String] = Seq("perturb-small", "community-removal")

  /** The timed instance of a workload. */
  def apply(name: String, seed: Long): Workload = name match {
    case "perturb-small"     =>
      new PerturbSmall(seed, nV = 60, nE = 1000, views = 2, churn = 4, depth = Some(6))
    case "community-removal" =>
      new CommunityRemoval(seed, nV = 1500, nE = 9000, n = 10, k = 5, builds = 1)
    case other => throw new IllegalArgumentException(
      s"unknown workload '$other' (expected one of ${Names.mkString(", ")})")
  }

  /** A tiny instance of the same shape, run once before timing so JIT and
    * code generation do not land in whichever cell runs first. It builds
    * the collection once and runs only the diff-only cell, whose view 0 also
    * goes through the scratch path: the plan shapes get compiled while the
    * per-iteration Spark latency is paid as few times as possible.
    */
  def warmUp(name: String, seed: Long): Workload = name match {
    case "perturb-small"     =>
      new PerturbSmall(seed, nV = 5, nE = 10, views = 2, churn = 1, depth = None, builds = 1,
                       scratch = false)
    case "community-removal" =>
      new CommunityRemoval(seed, nV = 100, nE = 300, n = 10, k = 5, builds = 1)
    case other => apply(other, seed)
  }

  /** Independent generator seeds derived from the workload seed. */
  def subSeed(seed: Long, salt: Int): Long =
    new scala.util.Random(seed * 1000003L + salt).nextInt(1 << 30).toLong

  /** Materialize a graph's frames so later passes read cached rows. */
  def materialize(g: PropertyGraph): PropertyGraph =
    PropertyGraph(Engine.ckpt(g.nodes), Engine.ckpt(g.edges))

  def collectEdges(df: DataFrame): Seq[(Long, Long, Double)] =
    df.select("src", "dst", "weight").collect().toSeq
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))

  /** Synchronous Bellman-Ford rounds from `source`, counted the way
    * `ScratchRun` counts iterations: up to and including the first round
    * that changes nothing.
    */
  def bfRounds(vertices: Seq[Long], es: Seq[(Long, Long, Double)], source: Long): Int = {
    val init = vertices.map(v => v -> (if (v == source) 0.0 else Double.PositiveInfinity)).toMap
    var dist = init
    var rounds = 0
    var changed = true
    while (changed) {
      rounds += 1
      val next = mutable.Map(init.toSeq: _*)
      es.foreach { case (u, v, w) => if (dist(u) + w < next(v)) next(v) = dist(u) + w }
      changed = next != dist
      dist = next.toMap
    }
    rounds
  }

  /** The lowest vertex id with an out-edge whose Bellman-Ford run takes the
    * number of rounds closest to `rounds`. `BenchUtil.firstSource` gives 5
    * to 7 rounds across seeds on `perturb-small`, which swings the run time
    * by a sixth; fixing the depth keeps the seed from doing that.
    */
  def sourceWithRounds(vertices: Seq[Long], es: Seq[(Long, Long, Double)], rounds: Int): Long =
    es.map(_._1).distinct.minBy(s => (math.abs(bfRounds(vertices, es, s) - rounds), s))

  /** Build the collection `builds` times, one timed call each. `cct_s` and
    * the creation-time breakdown are medians over the builds; every build
    * must reproduce the first build's Σ|δC_t| and view count. Returns the
    * last build.
    */
  def buildCollection(ctx: Ctx, call: String, builds: Int, views: Int, expected: Option[Long])
                     (build: => ViewCollection): ViewCollection = {
    val runs = (1 to builds).map(_ => ctx.tracer.timed(call, "cct")(build))
    val colls = runs.map(_._1)
    val want = expected.getOrElse(colls.head.totalDiffs)
    colls.zipWithIndex.foreach { case (c, i) =>
      ctx.gate.op(s"collection build $i")(c.totalDiffs == want && c.numViews == views)
    }
    val m = ctx.m
    m("cct_s") = Stats.median(runs.map(_._2))
    m("diffs_total") = colls.last.totalDiffs.toDouble
    m("views.ebm_s") = Stats.median(colls.map(_.cct.ebmMs / 1e3))
    m("ordering.order_s") = Stats.median(colls.map(_.cct.orderMs / 1e3))
    m("views.diffstream_s") = Stats.median(colls.map(_.cct.diffMs / 1e3))
    colls.last
  }
}

/** Shared handling of whole-collection analytics runs. */
object Cells {

  def modeName(mode: Mode): String = if (mode == DiffOnly) "diff" else "scratch"

  /** Per-cell layer metrics from the run's per-view stats and its wall-clock. */
  def record(ctx: Ctx, cell: String, wall: Double, stats: Seq[ViewStat]): Unit = {
    val m = ctx.m
    val runS = stats.map(_.millis).sum / 1e3
    val iters = stats.map(_.iterations).sum
    m(s"${cell}_s") = wall
    m(s"exec.$cell.run_s") = runS
    m(s"exec.$cell.maintain_s") = wall - runS
    m(s"exec.$cell.iterations") = iters.toDouble
    m(s"exec.$cell.work") = stats.map(_.workRows).sum.toDouble
    m(s"exec.$cell.ms_per_iter") = if (iters == 0) 0.0 else runS * 1e3 / iters
    m(s"exec.$cell.view_p50_ms") = Stats.median(stats.map(_.millis.toDouble))
  }

  /** Scratch-over-diff ratios on views ≥ 1, and the regret of the §5
    * splitting optimizer fed the measured per-view times.
    */
  def compare(ctx: Ctx, prog: String, diff: Seq[ViewStat], scratch: Seq[ViewStat]): Unit = {
    val m = ctx.m
    val d = diff.drop(1)
    val s = scratch.drop(1)
    def ratio(a: Double, b: Double) = if (b == 0) 0.0 else a / b
    m(s"exec.$prog.work_ratio") = ratio(s.map(_.workRows).sum, d.map(_.workRows).sum)
    m(s"exec.$prog.wall_ratio") = ratio(s.map(_.millis).sum, d.map(_.millis).sum)

    val opt = new SplittingOptimizer()
    var chosen = 0L
    var best = 0L
    var diffViews = 0
    diff.zip(scratch).foreach { case (dv, sv) =>
      val runDiff = opt.decide(dv.t, sv.viewEdges, dv.deltaEdges)
      val ms = if (runDiff && dv.ranDiff) dv.millis else sv.millis
      opt.observe(runDiff, if (runDiff) dv.deltaEdges else sv.viewEdges, ms)
      if (runDiff) diffViews += 1
      chosen += ms
      best += (if (dv.ranDiff) math.min(dv.millis, sv.millis) else sv.millis)
    }
    m(s"optimizer.$prog.regret_s") = (chosen - best) / 1e3
    m(s"optimizer.$prog.diff_views") = diffViews.toDouble
  }

  /** Run a vertex program over the collection and check every view. */
  def runProgram(ctx: Ctx, prog: String, program: VertexProgram, verts: DataFrame,
                 coll: ViewCollection, mode: Mode,
                 ref: Int => Map[Long, Double], tol: Double): CollectionRun = {
    val cell = s"${prog}_${modeName(mode)}"
    val (run, wall) = ctx.tracer.timed("CollectionExecutor.run", cell) {
      CollectionExecutor.run(ctx.spark, program, verts, coll, mode, keepResults = true)
    }
    record(ctx, cell, wall, run.stats)
    run.stats.zip(run.results).foreach { case (st, res) =>
      ctx.gate.op(s"$cell view ${st.t}") {
        val capped = program.fixedIterations.isEmpty && st.iterations >= program.maxIterations
        if (capped) ctx.gate.note(s"$cell view ${st.t} stopped at maxIterations")
        val bad = Check.mismatches(res, ref(st.t), tol)
        if (bad.nonEmpty) ctx.gate.note(s"$cell view ${st.t} differs from the reference: ${bad.mkString(", ")}")
        !capped && bad.isEmpty
      }
    }
    run
  }

  /** Diff results must equal scratch results view by view. */
  def diffMatchesScratch(ctx: Ctx, prog: String, diff: CollectionRun,
                         scratch: CollectionRun, tol: Double): Unit =
    diff.results.zip(scratch.results).zipWithIndex.foreach { case ((d, s), t) =>
      ctx.gate.op(s"${prog} diff≡scratch view $t")(Check.sameValues(d, s, tol))
    }
}

/** Table 2 C-small shape: a random digraph and a perturbation collection
  * with a few explicit edge additions and deletions per view. Bellman-Ford
  * runs diff-only and scratch-only over the same collection.
  */
final class PerturbSmall(seed: Long, nV: Long, nE: Long, views: Int, churn: Int,
                         depth: Option[Int], builds: Int = 5, scratch: Boolean = true)
    extends Workload {
  private var edges: DataFrame = _
  private var verts: DataFrame = _
  private var vertList: Seq[Long] = Nil
  private var source = 0L
  private var firstTotal: Option[Long] = None
  private val refs = mutable.Map.empty[Int, Map[Long, Double]]

  def setUp(ctx: Ctx): Unit = {
    val g = Workload.materialize(GraphGen.randomGraph(ctx.spark, nV, nE, Workload.subSeed(seed, 1)))
    edges = Engine.ckpt(g.topology)
    verts = Engine.ckpt(g.vertexIds)
    vertList = verts.collect().map(_.getLong(0)).toSeq
    source = depth match {
      case None    => BenchUtil.firstSource(edges)
      case Some(r) => Workload.sourceWithRounds(vertList, Workload.collectEdges(edges), r)
    }
  }

  def provenance: Seq[(String, Any)] = Seq(
    "vertices" -> vertList.size, "edges" -> edges.count(), "views" -> views,
    "adds_per_view" -> churn, "dels_per_view" -> churn, "bf_source" -> source,
    "bf_source_rounds" -> depth.map(_.toString).getOrElse("first source"),
    "builds_per_pass" -> builds)

  def pass(ctx: Ctx): Unit = {
    val coll = Workload.buildCollection(ctx, "BenchUtil.perturbationCollection", builds, views,
                                        firstTotal) {
      BenchUtil.perturbationCollection(ctx.spark, "perturb-small", edges, nV, views,
        addN = churn, delN = churn, seed = Workload.subSeed(seed, 2))
    }
    firstTotal = Some(coll.totalDiffs)
    def ref(t: Int): Map[Long, Double] = refs.getOrElseUpdate(t,
      Reference.bellmanFord(vertList, Workload.collectEdges(coll.viewEdges(t)), source))

    val d = Cells.runProgram(ctx, "bf", Sssp(source), verts, coll, DiffOnly, ref, 1e-9)
    if (scratch) {
      val s = Cells.runProgram(ctx, "bf", Sssp(source), verts, coll, ScratchOnly, ref, 1e-9)
      Cells.diffMatchesScratch(ctx, "bf", d, s, 1e-9)
      Cells.compare(ctx, "bf", d.stats, s.stats)
    }
  }
}

/** Table 4 shape: a planted-community graph and the ¹⁰C₅ = 252 views that
  * each remove five communities, written as GVDL text and built with the
  * Graphsurge ordering. Only collection creation runs.
  */
final class CommunityRemoval(seed: Long, nV: Long, nE: Long, n: Int, k: Int, builds: Int)
    extends Workload {
  private var graph: PropertyGraph = _
  private var firstTotal: Option[Long] = None
  private val subsets = (0 until n).combinations(k).toSeq
  val numViews: Int = subsets.size

  val gvdl: String = subsets.map { s =>
    val pred = s.map(c => s"src.comm != $c and dst.comm != $c").mkString(" and ")
    s"[drop-${s.mkString("-")}: $pred]"
  }.mkString("create view collection community-removal on communities\n  ", ",\n  ", "")

  def setUp(ctx: Ctx): Unit = {
    // A 252-view EBM is one projection with thousands of sub-expressions,
    // beyond whole-stage codegen's limits (Table4.run turns it off too).
    ctx.spark.conf.set("spark.sql.codegen.wholeStage", "false")
    graph = Workload.materialize(
      GraphGen.communityGraph(ctx.spark, nV, nE, nComm = 12, seed = Workload.subSeed(seed, 4)))
  }

  def provenance: Seq[(String, Any)] = Seq(
    "vertices" -> graph.nodes.count(), "edges" -> graph.edges.count(), "views" -> numViews,
    "communities" -> 12, "removed_per_view" -> k, "gvdl_chars" -> gvdl.length,
    "builds_per_pass" -> builds)

  def pass(ctx: Ctx): Unit = {
    val coll = Workload.buildCollection(ctx, "ViewCollection.fromGvdl", builds, numViews,
                                        firstTotal) {
      ViewCollection.fromGvdl(graph, gvdl, ViewCollection.GraphsurgeOrder)
    }
    firstTotal = Some(coll.totalDiffs)
    if (ctx.traced)
      ctx.m("gvdl.parse_ms") = ctx.tracer.timed("Parser.parse", "cct")(Parser.parse(gvdl))._2 * 1e3

    val ebm = coll.ebm.get
    ctx.gate.op("§4 path cost of the Graphsurge order equals Σ|δC_t|") {
      val (d, hamS) = ctx.tracer.timed("Hamming.distances", "check")(Hamming.distances(ebm, numViews))
      val (ord, tspS) = ctx.tracer.timed("CollectionOrderer.fromDistances", "check") {
        CollectionOrderer.fromDistances(d)
      }
      ctx.m("ordering.hamming_s") = hamS
      ctx.m("ordering.tsp_ms") = tspS * 1e3
      if (ord.predictedDiffs != coll.totalDiffs.toDouble)
        ctx.gate.note(s"predicted ${ord.predictedDiffs} != built ${coll.totalDiffs}")
      ord.predictedDiffs == coll.totalDiffs.toDouble
    }
    val random = (1 to 3).map { r =>
      val order = CollectionOrderer.randomOrder(numViews, Workload.subSeed(seed, 10 + r))
      val diffs = ctx.tracer.span("DiffStream.countDiffs", "check")(DiffStream.countDiffs(ebm, order))
      ctx.gate.op(s"Graphsurge order beats random order $r")(coll.totalDiffs <= diffs)
      diffs
    }
    ctx.m("ordering.random_ratio") = random.sum / 3.0 / coll.totalDiffs
  }
}
