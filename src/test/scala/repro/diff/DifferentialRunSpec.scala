package repro.diff

import repro.{ReproSpec, TestGraphs}
import repro.TestGraphs.E
import repro.algorithms._
import scala.util.Random

/** The central correctness invariant of the reproduction: running a
  * collection differentially must produce, at every view, exactly the
  * result of running that view from scratch — for additions, deletions,
  * and mixes, across all programs.
  */
class DifferentialRunSpec extends ReproSpec {

  private def referenceFor(prog: VertexProgram, nV: Int, edges: Seq[E]): Map[Long, Double] = {
    val verts = (0L until nV).toSeq
    val pairs = edges.map(e => (e.src, e.dst))
    prog match {
      case Wcc()           => Reference.wcc(verts, pairs)
      case Bfs(s)          => Reference.bfs(verts, pairs, s)
      case Sssp(s)         => Reference.bellmanFord(verts, edges.map(e => (e.src, e.dst, e.w)), s)
      case PageRankProg(k) => Reference.pageRank(verts, pairs, k)
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
  private def checkCollection(prog: VertexProgram, seed: Int, nV: Int, nE: Int,
                              views: Int, addPerView: Int, delPerView: Int): Unit = {
    val rnd = new Random(seed)
    val init = TestGraphs.randomEdges(rnd, nV, nE)
    checkViews(prog, s"c$seed", nV,
               TestGraphs.perturbationViews(rnd, nV, init, views, addPerView, delPerView))
  }

  private def checkViews(prog: VertexProgram, name: String, nV: Int,
                         viewLists: Seq[Seq[E]]): Unit = {
    val coll = TestGraphs.collectionFrom(spark, name, viewLists)
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

  val programs: Seq[VertexProgram] = Seq(Wcc(), Bfs(0L), Sssp(0L), PageRankProg(6))

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
    val coll = TestGraphs.collectionFrom(spark, "ident", viewLists)
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
    val coll = TestGraphs.collectionFrom(spark, "small", viewLists)
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
    val coll = TestGraphs.collectionFrom(spark, "shortcut", viewLists)
    val run = CollectionExecutor.run(spark, Sssp(0L), TestGraphs.vertices(spark, 5),
                                     coll, CollectionExecutor.DiffOnly, keepResults = true)
    assert(run.stats(1).ranDiff)
    for (t <- viewLists.indices)
      assertClose(run.results(t), referenceFor(Sssp(0L), 5, viewLists(t)), s"view $t")
  }

  test("disjoint views (complete replacement) still produce correct results") {
    val rnd = new Random(53)
    val nV = 30
    val a = TestGraphs.randomEdges(rnd, nV, 80, eidBase = 0)
    val b = TestGraphs.randomEdges(rnd, nV, 80, eidBase = 1000)
    val c = TestGraphs.randomEdges(rnd, nV, 80, eidBase = 2000)
    val viewLists = Vector(a, b, c)
    val coll = TestGraphs.collectionFrom(spark, "disjoint", viewLists)
    val run = CollectionExecutor.run(spark, Wcc(), TestGraphs.vertices(spark, nV),
                                     coll, CollectionExecutor.DiffOnly, keepResults = true)
    for (t <- viewLists.indices)
      assertClose(run.results(t), referenceFor(Wcc(), nV, viewLists(t)), s"view $t")
  }
}
