package repro.algorithms

import repro.{Oracle, ReproSpec, TestGraphs}
import repro.TestGraphs.E
import repro.diff.{CollectionExecutor, EdgeArrangement}
import repro.diff.CollectionExecutor.{Adaptive, DiffOnly, ScratchOnly}
import repro.diff.Engine.RunResult
import scala.util.Random

/** SCC: Tarjan-from-scratch and condensation-incremental vs the Tarjan
  * reference and a Kosaraju oracle.
  */
class SccSpec extends ReproSpec {

  private def ids(run: RunResult): Map[Long, Long] =
    run.finalState.map { case (v, c) => v -> c.toLong }

  private def scratch(nV: Int, edges: Seq[E]): RunResult =
    Scc.fromScratch(TestGraphs.vertexIds(nV), TestGraphs.arrangement(edges))

  private def sccScratch(nV: Int, edges: Seq[E]): Map[Long, Long] = ids(scratch(nV, edges))

  /** `Scc.advance` from `base`'s scratch run to `next`, over one
    * arrangement fed the two views' slices.
    */
  private def advanced(nV: Int, base: Seq[E], next: Seq[E]): Map[Long, Long] = {
    val coll = TestGraphs.collectionFrom("scc", Seq(base, next))
    val edges = new EdgeArrangement
    edges.update(coll.delta(0))
    val prev = Scc.fromScratch(TestGraphs.vertexIds(nV), edges)
    edges.update(coll.delta(1))
    ids(Scc.advance(edges, coll.delta(1), prev))
  }

  private def sccRef(nV: Int, edges: Seq[E]): Map[Long, Long] =
    Reference.scc((0L until nV).toSeq, edges.map(e => (e.src, e.dst)))

  /** The collection loop returns every result as a double. */
  private def asIds(ref: Map[Long, Long]): Map[Long, Double] =
    ref.map { case (v, c) => v -> c.toDouble }

  test("explicit example: two cycles bridged by a DAG edge") {
    // 0→1→2→0 and 3→4→3, bridge 2→3, tail 4→5.
    val edges = Seq((0L,1L),(1L,2L),(2L,0L),(3L,4L),(4L,3L),(2L,3L),(4L,5L))
      .zipWithIndex.map { case ((s,d), i) => E(i, s, d, 1.0) }
    val got = sccScratch(6, edges)
    assert(got == Map(0L->0L, 1L->0L, 2L->0L, 3L->3L, 4L->3L, 5L->5L))
  }

  for (seed <- Seq(1, 2, 3, 4)) {
    test(s"SCC matches Tarjan on a random digraph (seed=$seed)") {
      val rnd = new Random(seed)
      val nV = 30 + rnd.nextInt(20)
      val edges = TestGraphs.randomEdges(rnd, nV, nV * 2)
      val got = sccScratch(nV, edges)
      assert(got == sccRef(nV, edges))
      assert(got == Oracle.kosaraju((0L until nV).toSeq, edges.map(e => (e.src, e.dst))))
    }
  }

  test("SCC on a pure DAG yields singletons") {
    val rnd = new Random(9)
    // dst < src always → DAG.
    val edges = Vector.tabulate(60) { i =>
      val s = 1 + rnd.nextInt(29)
      E(i, s.toLong, rnd.nextInt(s).toLong, 1.0)
    }
    val got = sccScratch(30, edges)
    assert(got == (0L until 30).map(v => v -> v).toMap)
  }

  test("incremental: additions that merge two SCCs") {
    val base = Seq((0L,1L),(1L,0L),(2L,3L),(3L,2L),(1L,2L))
      .zipWithIndex.map { case ((s,d), i) => E(i, s, d, 1.0) }
    val added = base :+ E(100, 3L, 0L, 1.0) // closes the big cycle
    assert(advanced(4, base, added) == Map(0L->0L, 1L->0L, 2L->0L, 3L->0L))
  }

  test("incremental: deletion that breaks an SCC") {
    val base = Seq((0L,1L),(1L,2L),(2L,0L),(2L,3L))
      .zipWithIndex.map { case ((s,d), i) => E(i, s, d, 1.0) }
    val remaining = base.filterNot(e => e.src == 1L && e.dst == 2L)
    assert(advanced(4, base, remaining) == sccRef(4, remaining))
  }

  for (seed <- Seq(21, 22)) {
    test(s"incremental matches Tarjan across a perturbation collection (seed=$seed)") {
      val rnd = new Random(seed)
      val nV = 25
      val init = TestGraphs.randomEdges(rnd, nV, 60)
      val views = TestGraphs.perturbationViews(rnd, nV, init, 4, 10, 10)
      val coll = TestGraphs.collectionFrom(s"scc$seed", views)
      val verts = TestGraphs.vertices(spark, nV)
      val run = CollectionExecutor.run(spark, Scc, verts, coll, DiffOnly, keepResults = true)
      val adaptive = CollectionExecutor.run(spark, Scc, verts, coll, Adaptive(1), keepResults = true)
      assert(run.stats.head.ranDiff === false)
      run.stats.drop(1).foreach(s => assert(s.ranDiff))
      for (t <- views.indices) {
        assert(run.results(t) == asIds(sccRef(nV, views(t))), s"view $t")
        assert(adaptive.results(t) == asIds(sccRef(nV, views(t))), s"adaptive view $t")
      }
    }
  }

  test("scratch and incremental agree through the scratch executor too") {
    val rnd = new Random(33)
    val nV = 25
    val init = TestGraphs.randomEdges(rnd, nV, 60)
    val views = TestGraphs.perturbationViews(rnd, nV, init, 3, 8, 8)
    val coll = TestGraphs.collectionFrom("sccS", views)
    val verts = TestGraphs.vertices(spark, nV)
    val run = CollectionExecutor.run(spark, Scc, verts, coll, ScratchOnly, keepResults = true)
    val adaptive = CollectionExecutor.run(spark, Scc, verts, coll, Adaptive(1), keepResults = true)
    for (t <- views.indices) {
      assert(run.results(t) == asIds(sccRef(nV, views(t))), s"view $t")
      assert(adaptive.results(t) == asIds(sccRef(nV, views(t))), s"adaptive view $t")
    }
  }

  /** `views` through the collection loop in every mode, each view against
    * the reference.
    */
  private def allModesMatch(name: String, nV: Int, views: Vector[Vector[E]]): Unit = {
    val coll = TestGraphs.collectionFrom(name, views)
    val verts = TestGraphs.vertices(spark, nV)
    for (mode <- Seq(DiffOnly, ScratchOnly, Adaptive(1))) {
      val run = CollectionExecutor.run(spark, Scc, verts, coll, mode, keepResults = true)
      if (mode == DiffOnly) run.stats.drop(1).foreach(s => assert(s.ranDiff, s"view ${s.t}"))
      for (t <- views.indices)
        assert(run.results(t) == asIds(sccRef(nV, views(t))), s"$mode view $t")
    }
  }

  test("additions that close one long cycle over several views, in every mode") {
    // Four 15-vertex paths, each closed into a cycle, with 59→0 from the
    // last to the first. Views 1–3 each add one link between consecutive
    // paths; view 3's closes the ring of all four, one 60-vertex SCC.
    val nV = 60
    val paths = (0 until nV).filter(_ % 15 != 14).map(v => (v.toLong, v + 1L))
    val backs = (0 until 4).map(p => (15L * p + 14, 15L * p))
    val base = (paths ++ backs :+ (59L -> 0L)).zipWithIndex.map { case ((s, d), i) => E(i, s, d, 1.0) }
    val links = Seq(14, 29, 44).zipWithIndex.map { case (v, i) => E(1000 + i, v, v + 1L, 1.0) }
    val views = (0 to 3).map(t => base.toVector ++ links.take(t)).toVector
    assert(sccRef(nV, views(2)).values.toSet.size == 4)
    assert(sccRef(nV, views(3)).values.toSet == Set(0L))
    allModesMatch("sccRing", nV, views)
  }

  test("one deletion that splits a large SCC into many, in every mode") {
    // Eight 5-cycles chained 0→1→…→7 and closed by one edge 7→0: one
    // 40-vertex SCC. View 1 deletes the closing edge (eight SCCs); view 2
    // deletes an edge of cycle 3 (its five vertices become singletons).
    val nV = 40
    val cycles = (0 until nV).map(v => (v.toLong, v / 5 * 5 + (v + 1) % 5L))
    val chain = (0 until 7).map(c => (5L * c + 4, 5L * (c + 1)))
    val v0 = (cycles ++ chain :+ (39L -> 0L)).zipWithIndex.map { case ((s, d), i) => E(i, s, d, 1.0) }
      .toVector
    val v1 = v0.filterNot(e => e.src == 39L && e.dst == 0L)
    val v2 = v1.filterNot(e => e.src == 17L && e.dst == 18L)
    val views = Vector(v0, v1, v2)
    assert(sccRef(nV, v0).values.toSet == Set(0L))
    assert(sccRef(nV, v1).values.toSet.size == 8)
    allModesMatch("sccSplit", nV, views)
  }

  test("condensation examines fewer vertices than scratch when no SCC breaks") {
    // Five 6-cycles; views 1 and 2 add only edges from a lower cycle to a
    // higher one, so no cycle merges and none breaks.
    val nV = 30
    val cycles = (0 until nV).map(v => E(v, v, v / 6 * 6 + (v + 1) % 6, 1.0))
    val rnd = new Random(61)
    def forward(eidBase: Long): Seq[E] = (0 until 4).map { k =>
      val i = rnd.nextInt(4)
      val j = i + 1 + rnd.nextInt(4 - i)
      E(eidBase + k, 6L * i + rnd.nextInt(6), 6L * j + rnd.nextInt(6), 1.0)
    }
    val v0 = cycles ++ forward(100)
    val v1 = v0 ++ forward(200)
    val v2 = v1 ++ forward(300)
    val views = Vector(v0, v1, v2)
    val coll = TestGraphs.collectionFrom("sccShare", views)
    val run = CollectionExecutor.run(spark, Scc, TestGraphs.vertices(spark, nV), coll, DiffOnly,
                                     keepResults = true)
    val scratchWork = run.stats.head.workRows
    run.stats.foreach(s => assert(s.iterations > 0 && s.workRows > 0, s"view ${s.t}"))
    run.stats.drop(1).foreach { s =>
      assert(s.ranDiff)
      assert(s.workRows < scratchWork,
             s"view ${s.t}: condensation examined ${s.workRows}, scratch $scratchWork")
    }
    for (t <- views.indices)
      assert(run.results(t) == asIds(sccRef(nV, views(t))), s"view $t")
  }
}
