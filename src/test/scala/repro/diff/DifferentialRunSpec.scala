package repro.diff

import repro.{ReproSpec, TestGraphs}
import repro.TestGraphs.E
import repro.algorithms._
import scala.util.Random

/** The central correctness invariant of the reproduction: running a
  * collection differentially must produce, at every view, exactly the
  * result of running that view from scratch — for additions, deletions,
  * and mixes, across all analytics, SCC included.
  */
class DifferentialRunSpec extends ReproSpec {

  private def referenceFor(prog: Analytic, nV: Int, edges: Seq[E]): Map[Long, Double] = {
    val verts = (0L until nV).toSeq
    val pairs = edges.map(e => (e.src, e.dst))
    prog match {
      case Wcc()           => Reference.wcc(verts, pairs)
      case Bfs(s)          => Reference.bfs(verts, pairs, s)
      case Sssp(s)         => Reference.bellmanFord(verts, edges.map(e => (e.src, e.dst, e.w)), s)
      case PageRankProg(k) => Reference.pageRank(verts, pairs, k)
      case Scc             => Reference.scc(verts, pairs).map { case (v, c) => v -> c.toDouble }
      case other           => fail(s"no reference for ${other.name}")
    }
  }

  private def assertClose(got: Map[Long, Double], exp: Map[Long, Double], ctx: String): Unit = {
    assert(got.keySet == exp.keySet, s"$ctx: vertex sets differ")
    got.foreach { case (v, x) =>
      val y = exp(v)
      val ok = (x.isInfinity && y.isInfinity) || math.abs(x - y) < 1e-6
      assert(ok, s"$ctx: vertex $v got $x expected $y")
    }
  }

  /** Run a perturbation collection differentially and check every view
    * against the driver-side reference.
    */
  private def checkCollection(prog: Analytic, seed: Int, nV: Int, nE: Int,
                              views: Int, addPerView: Int, delPerView: Int): Unit = {
    val rnd = new Random(seed)
    val init = TestGraphs.randomEdges(rnd, nV, nE)
    checkViews(prog, s"c$seed", nV,
               TestGraphs.perturbationViews(rnd, nV, init, views, addPerView, delPerView))
  }

  private def checkViews(prog: Analytic, name: String, nV: Int,
                         viewLists: Seq[Seq[E]]): Unit = {
    val coll = TestGraphs.collectionFrom(name, viewLists)
    val run = CollectionExecutor.run(spark, prog, TestGraphs.vertices(spark, nV),
                                     coll, CollectionExecutor.DiffOnly, keepResults = true)
    for (t <- viewLists.indices) {
      assertClose(run.results(t), referenceFor(prog, nV, viewLists(t)),
                  s"${prog.name} view $t")
    }
    // Views 1.. must actually have run differentially.
    assert(run.stats.head.ranDiff === false)
    run.stats.drop(1).foreach(s => assert(s.ranDiff, s"view ${s.t} should be differential"))
  }

  val programs: Seq[Analytic] = Seq(Wcc(), Bfs(0L), Sssp(0L), PageRankProg(6), Scc)

  for (prog <- programs; seed <- Seq(11, 12)) {
    test(s"${prog.name} differential == reference on mixed add/remove collection (seed=$seed)") {
      checkCollection(prog, seed, nV = 35, nE = 100, views = 4,
                      addPerView = 8, delPerView = 8)
    }
  }

  for (prog <- programs) {
    test(s"${prog.name} differential == reference on addition-only collection") {
      checkCollection(prog, 23, nV = 30, nE = 60, views = 4, addPerView = 15, delPerView = 0)
    }
    test(s"${prog.name} differential == reference on deletion-only collection") {
      checkCollection(prog, 31, nV = 30, nE = 120, views = 4, addPerView = 0, delPerView = 20)
    }
  }

  for (prog <- programs) {
    test(s"${prog.name} differential == reference when a view deletes every edge and the next restores them") {
      val edges = TestGraphs.randomEdges(new Random(37), 30, 90)
      checkViews(prog, "wipe", 30, Vector(edges, Vector.empty, edges))
    }
  }

  test("PageRank differential == reference on every view of a 21-view collection") {
    checkCollection(PageRankProg(10), 71, nV = 35, nE = 100, views = 21,
                    addPerView = 4, delPerView = 4)
  }

  test("empty difference set short-circuits (zero iterations)") {
    val rnd = new Random(5)
    val edges = TestGraphs.randomEdges(rnd, 20, 50)
    val viewLists = Vector(edges, edges, edges) // identical views
    val coll = TestGraphs.collectionFrom("ident", viewLists)
    val run = CollectionExecutor.run(spark, Wcc(), TestGraphs.vertices(spark, 20),
                                     coll, CollectionExecutor.DiffOnly, keepResults = true)
    assert(run.stats(1).iterations == 0)
    assert(run.stats(2).iterations == 0)
    assertClose(run.results(2), referenceFor(Wcc(), 20, edges), "identical view")
  }

  test("small perturbations touch a small computation footprint (sharing)") {
    val rnd = new Random(41)
    val nV = 200
    val init = TestGraphs.randomEdges(rnd, nV, 600)
    val viewLists = TestGraphs.perturbationViews(rnd, nV, init, 3, 3, 3)
    val coll = TestGraphs.collectionFrom("small", viewLists)
    val run = CollectionExecutor.run(spark, Bfs(0L), TestGraphs.vertices(spark, nV),
                                     coll, CollectionExecutor.DiffOnly, keepResults = true)
    val scratchWork = run.stats.head.workRows // |V| × iterations of view 0
    run.stats.drop(1).foreach { s =>
      assert(s.workRows < scratchWork / 2,
             s"view ${s.t}: differential work ${s.workRows} not < half of scratch $scratchWork")
    }
    for (t <- viewLists.indices)
      assertClose(run.results(t), referenceFor(Bfs(0L), nV, viewLists(t)), s"view $t")
  }

  test("replay continues while a stored change can still reach a diverged vertex") {
    // Chain 0→1→2→3→4 plus the shortcut 0→4; view 1 deletes the shortcut.
    // Vertex 4 diverges (1 → ∞) at iteration 1 and stays stationary until
    // the chain's stored change at vertex 3 (iteration 3) reaches it at
    // iteration 4, so the replay must not stop at the stored horizon.
    val chain = (0 until 4).map(k => E(k, k.toLong, k + 1L, 1.0))
    val v0 = chain :+ E(4, 0L, 4L, 1.0)
    val viewLists = Vector(v0, chain)
    val coll = TestGraphs.collectionFrom("shortcut", viewLists)
    val run = CollectionExecutor.run(spark, Sssp(0L), TestGraphs.vertices(spark, 5),
                                     coll, CollectionExecutor.DiffOnly, keepResults = true)
    assert(run.stats(1).ranDiff)
    for (t <- viewLists.indices)
      assertClose(run.results(t), referenceFor(Sssp(0L), 5, viewLists(t)), s"view $t")
  }

  // ---- adversarial shapes: every program in every mode, every view ------

  /** Run every program over the views in diff-only, scratch-only and
    * adaptive mode; each view's result must match the reference, and the
    * diff-only result must match the scratch-only one.
    */
  private def checkAllModes(name: String, nV: Int, viewLists: Seq[Seq[E]]): Unit = {
    val coll = TestGraphs.collectionFrom(name, viewLists)
    val verts = TestGraphs.vertices(spark, nV)
    import CollectionExecutor.{Adaptive, DiffOnly, ScratchOnly}
    for (prog <- programs) {
      val Seq(diff, scratch, adaptive) = Seq(DiffOnly, ScratchOnly, Adaptive(1))
        .map(m => CollectionExecutor.run(spark, prog, verts, coll, m, keepResults = true))
      assert(diff.stats.drop(1).forall(_.ranDiff))
      for (t <- viewLists.indices) {
        val ctx = s"$name ${prog.name} view $t"
        val exp = referenceFor(prog, nV, viewLists(t))
        assertClose(diff.results(t), exp, s"$ctx diff-only")
        assertClose(scratch.results(t), exp, s"$ctx scratch-only")
        assertClose(adaptive.results(t), exp, s"$ctx adaptive")
        assertClose(diff.results(t), scratch.results(t), s"$ctx diff vs scratch")
      }
    }
  }

  private def edges(es: (Long, Long, Double)*): Vector[E] =
    es.zipWithIndex.map { case ((s, d, w), i) => E(i.toLong, s, d, w) }.toVector

  test("parallel edges, one copy deleted per view, in every mode") {
    val v0 = edges((0, 1, 2.0), (0, 1, 5.0), (1, 2, 1.0), (1, 2, 1.0), (2, 3, 1.0),
                   (0, 4, 1.0), (4, 3, 3.0), (3, 5, 1.0))
    val v1 = v0.filterNot(e => e.eid == 0 || e.eid == 3) // the cheap 0→1, one 1→2
    val v2 = v1.filterNot(_.eid == 1) :+ E(8, 1, 2, 1.0)  // last 0→1 gone, another 1→2
    checkAllModes("parallel", 6, Vector(v0, v1, v2))
  }

  test("self-loops added and deleted, in every mode") {
    val v0 = edges((0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0), (1, 2, 2.0), (2, 3, 1.0),
                   (3, 3, 1.0), (3, 4, 1.0))
    val v1 = v0.filterNot(_.eid == 2) ++ Vector(E(7, 4, 4, 1.0), E(8, 5, 5, 1.0))
    val v2 = v1.filterNot(e => e.eid == 1 || e.eid == 8)
    checkAllModes("selfloops", 6, Vector(v0, v1, v2))
  }

  test("a deleted (src, dst) re-added under a new eid, in every mode") {
    val v0 = edges((0, 1, 4.0), (1, 2, 1.0), (0, 2, 9.0), (2, 3, 1.0), (3, 4, 1.0))
    val v1 = v0.filterNot(_.eid == 1)
    val v2 = v1 :+ E(10, 1, 2, 2.0)                           // re-added in a later view
    val v3 = v2.filterNot(_.eid == 10) :+ E(11, 1, 2, 1.0)    // replaced within one view
    checkAllModes("readd", 5, Vector(v0, v1, v2, v3))
  }

  test("a hub with degree ~|V| under PageRank, in every mode") {
    val nV = 40
    val rnd = new Random(43)
    val out = (1 until nV).map(v => E(v - 1L, 0L, v.toLong, 1.0))
    val in = (1 until nV).map(v => E(100L + v, v.toLong, 0L, 1.0))
    val v0 = (out ++ in ++ TestGraphs.randomEdges(rnd, nV, 20, eidBase = 200)).toVector
    val v1 = v0.filterNot(e => e.eid < 10) ++ TestGraphs.randomEdges(rnd, nV, 5, eidBase = 300)
    val v2 = v1.filterNot(e => e.eid > 100 && e.eid <= 115) ++
      (1 to 5).map(v => E(400L + v, 0L, v.toLong, 1.0))
    checkAllModes("hub", nV, Vector(v0, v1, v2))
  }

  test("a view that cuts off the BFS/BF source, in every mode") {
    val v0 = TestGraphs.randomEdges(new Random(47), 10, 30) ++
      Vector(E(100, 0, 1, 1.0), E(101, 0, 2, 2.0), E(102, 3, 0, 1.0))
    val v1 = v0.filterNot(_.src == 0L)
    val v2 = v1 :+ E(103, 0, 5, 1.0)
    checkAllModes("cutoff", 10, Vector(v0, v1, v2))
  }

  test("vertices with no in-edges, in every mode") {
    // 0–2 are pure sources, 10 and 11 isolated; view 1 takes vertex 5's
    // only in-edge, view 2 gives isolated vertex 10 one.
    val v0 = edges((0, 3, 1.0), (1, 3, 2.0), (2, 4, 1.0), (3, 5, 1.0), (4, 6, 1.0),
                   (6, 7, 1.0), (5, 8, 1.0), (8, 9, 1.0), (9, 6, 1.0))
    val v1 = v0.filterNot(_.eid == 3)
    val v2 = v1 :+ E(20, 9, 10, 1.0)
    checkAllModes("noin", 12, Vector(v0, v1, v2))
  }

  test("WCC over a deleted edge whose reverse still exists, in every mode") {
    val v0 = edges((0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0), (3, 4, 1.0), (2, 3, 1.0))
    val v1 = v0.filterNot(e => e.eid == 0 || e.eid == 5) // 1→0 keeps {0,1}; 2→3 had no reverse
    val v2 = v1.filterNot(_.eid == 1) :+ E(6, 3, 2, 1.0)  // 0 isolated; 3→2 rejoins {3,4}
    checkAllModes("reverse", 6, Vector(v0, v1, v2))
  }

  test("negative weights without a negative cycle, in every mode") {
    // The cycle 3→4→5→3 weighs 1; view 2's 1→3→4→5→1 weighs 0.
    val v0 = edges((0, 1, 4.0), (0, 2, 2.0), (2, 1, -3.0), (1, 3, 2.0), (3, 4, -1.0),
                   (2, 4, 5.0), (4, 5, 1.0), (5, 3, 1.0))
    val v1 = v0.filterNot(_.eid == 2) :+ E(8, 0, 3, -2.0)
    val v2 = v1.filterNot(_.eid == 8) :+ E(9, 5, 1, -2.0)
    checkAllModes("negative", 7, Vector(v0, v1, v2))
  }

  test("a view that closes a negative cycle reachable from the source reports Cap") {
    // View 2 adds 2→1 (−4), closing 1→2→1 of weight −3.
    val v0 = edges((0, 1, 1.0), (1, 2, 1.0), (2, 3, -1.0), (3, 4, 2.0))
    val v1 = v0 :+ E(4, 4, 1, 1.0)
    val v2 = v1 :+ E(5, 2, 1, -4.0)
    val coll = TestGraphs.collectionFrom("negcycle", Vector(v0, v1, v2))
    for (mode <- Seq(CollectionExecutor.DiffOnly, CollectionExecutor.ScratchOnly)) {
      val run = CollectionExecutor.run(spark, Sssp(0L), TestGraphs.vertices(spark, 5), coll, mode)
      val stops = run.stats.map(_.stop)
      assert(stops.last.contains(Engine.Stop.Cap), s"$mode: $stops")
      assert(!stops.init.contains(Some(Engine.Stop.Cap)), s"$mode: $stops")
    }
  }

  test("disjoint views (complete replacement) still produce correct results") {
    val rnd = new Random(53)
    val nV = 30
    val a = TestGraphs.randomEdges(rnd, nV, 80, eidBase = 0)
    val b = TestGraphs.randomEdges(rnd, nV, 80, eidBase = 1000)
    val c = TestGraphs.randomEdges(rnd, nV, 80, eidBase = 2000)
    val viewLists = Vector(a, b, c)
    val coll = TestGraphs.collectionFrom("disjoint", viewLists)
    val run = CollectionExecutor.run(spark, Wcc(), TestGraphs.vertices(spark, nV),
                                     coll, CollectionExecutor.DiffOnly, keepResults = true)
    for (t <- viewLists.indices)
      assertClose(run.results(t), referenceFor(Wcc(), nV, viewLists(t)), s"view $t")
  }
}
