package repro.views

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.scalatest.Assertion
import repro.{Oracle, ReproSpec, TestGraphs}
import repro.graph.{GraphGen, PropertyGraph}
import repro.gvdl.{Ast, Compiler, Parser}
import repro.ordering.{CollectionOrderer, Hamming}
import scala.collection.mutable
import scala.util.Random

/** EBM (§3.2 step 1) and difference-stream (§3.2 step 3) semantics. */
class EbmDiffSpec extends ReproSpec {

  private lazy val graph = GraphGen.callGraph(spark, nV = 100, nE = 700)
  private val predTexts = Seq(
    "duration <= 5", "duration <= 12", "duration <= 20",
    "year <= 2013", "year <= 2016 and duration <= 20")
  private lazy val preds = predTexts.map(Parser.parsePredicate)
  private lazy val columns = Ebm.columns(graph, preds)
  // The exported frame, for the per-row `EbmReference` oracle.
  private lazy val ebm = columns.frame(spark)

  private def eids(df: DataFrame): Set[Long] = df.select("eid").collect().map(_.getLong(0)).toSet

  /** A frame's `eid, src, dst, weight` rows, sorted. */
  private def edgeRows(df: DataFrame): Seq[(Long, Long, Long, Double)] =
    df.select("eid", "src", "dst", "weight").collect().toSeq
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3))).sorted

  /** A slice expanded to its rows `(eid, src, dst, weight, ±1)`, in order. */
  private def expand(s: DiffStream.Slice): Seq[(Long, Long, Long, Double, Int)] =
    (0 until s.size).map(k => (s.columns.eid(s.row(k)), s.src(k), s.dst(k), s.weight(k), s.diff(k)))

  /** The stream of `columns` under `order`, every position expanded. */
  private def stream(columns: Ebm.Columns, order: Seq[Int]): Seq[Seq[(Long, Long, Long, Double, Int)]] = {
    val reader = DiffStream.reader(columns, order.toIndexedSeq)
    order.indices.map(t => expand(reader(t)))
  }

  test("EBM has one row per edge with packed bits") {
    assert(ebm.count() == graph.edges.count())
    assert(ebm.select("bits").head().getSeq[Long](0).size == 1)
  }

  for ((p, j) <- predTexts.zipWithIndex) {
    test(s"EBM column $j matches direct predicate count ('$p')") {
      val direct = graph.resolved
        .where(repro.gvdl.Compiler.edgePredicate(preds(j), graph.resolved.columns.toSeq)).count()
      assert(EbmReference.viewEdges(ebm, j).count() == direct)
    }
  }

  test("EBM view membership agrees with DuckDB per edge") {
    val flat = graph.resolved.select("eid", "duration", "year")
    val got = EbmReference.viewEdges(ebm, 0).select(col("eid").cast("string").as("eid"))
    Oracle.assertEquivalent(got,
      "SELECT eid FROM edges WHERE CAST(duration AS INT) <= 5", "edges" -> flat)
  }

  // Node 3 has null properties and node 9 has no row, so the left joins of
  // `resolved` give its edges null dst_* columns too.
  private lazy val nullGraph = {
    import spark.implicits._
    val nodes = Seq[(Long, Option[Int], Option[Boolean])](
      (1L, Some(1), Some(true)), (2L, Some(2), Some(false)), (3L, None, None))
      .toDF("id", "x", "b")
    val edges = Seq[(Long, Long, Long, Option[Int])](
      (0L, 1L, 2L, Some(3)), (1L, 2L, 1L, None), (2L, 3L, 1L, Some(4)),
      (3L, 1L, 3L, Some(3)), (4L, 3L, 9L, None), (5L, 9L, 2L, Some(1)),
      (6L, 2L, 9L, Some(3)), (7L, 3L, 3L, Some(2)))
      .toDF("eid", "src", "dst", "w")
    PropertyGraph(nodes, edges)
  }
  private val nullTexts = Seq(
    "not (src.x = 1)",
    "src.x = 1 or dst.x != 2",
    "not (src.x = 1 or dst.x != 2)",
    "not (src.x = 1) and w != 3",
    "dst.x != 2 or not (w != 3)",
    "src.b or not dst.b",
    "not src.b and (true or dst.x = 1)",
    "false or not (not (w != 3))")

  test("EBM bits follow SQL three-valued logic over nulls and missing endpoints") {
    val g = nullGraph
    val ps = nullTexts.map(Parser.parsePredicate)
    val m = Ebm.columns(g, ps).frame(spark)
    val cols = g.resolved.columns.toSeq
    for ((p, j) <- ps.zipWithIndex) {
      val direct = eids(g.resolved.where(Compiler.edgePredicate(p, cols)))
      assert(eids(EbmReference.viewEdges(m, j)) == direct, s"view $j '${nullTexts(j)}'")
    }
  }

  test("a non-Boolean view predicate is an IllegalArgumentException naming the view and type") {
    for ((pred, tpe) <- Seq("duration" -> "int", "5" -> "bigint", "year <= 2013 and year" -> "int")) {
      val gvdl = s"create view collection c on Calls [a: duration <= 5], [v: $pred]"
      val e = intercept[IllegalArgumentException](ViewCollection.fromGvdl(graph, gvdl))
      assert(e.getMessage.contains("view 1") && e.getMessage.contains(s"type $tpe"),
             e.getMessage)
    }
  }

  test("viewSizes matches per-view counts") {
    val sizes = EbmReference.viewSizes(ebm, predTexts.size)
    for (j <- predTexts.indices)
      assert(sizes(j) == EbmReference.viewEdges(ebm, j).count())
  }

  test("difference stream reconstitutes every view (Σ_{s≤t} δC_s = GV_t)") {
    val order = 0 until predTexts.size
    val ds = stream(columns, order)
    val live = mutable.Set.empty[Long]
    for (t <- order) {
      ds(t).foreach { case (eid, _, _, _, diff) => if (diff > 0) live += eid else live -= eid }
      // Exactly the same edge set, not just the same size.
      assert(live == eids(EbmReference.viewEdges(ebm, t)), s"view $t membership")
    }
  }

  /** `delta(t)`, expanded, is the stream built edge by edge
    * (`EbmReference.stream`) over the collection's EBM and order: position
    * t holds the reference's rows of t, in order, and the positions sum to
    * `totalDiffs`.
    */
  private def assertStreamIsReference(coll: ViewCollection): Assertion = {
    val want = EbmReference.stream(coll.ebm.get, coll.order)
      .select(col("t").cast("int"), col("eid").cast("long"), col("src").cast("long"),
              col("dst").cast("long"), col("weight").cast("double"), col("diff").cast("int"))
      .collect().toSeq
      .map(r => (r.getInt(0), (r.getLong(1), r.getLong(2), r.getLong(3), r.getDouble(4), r.getInt(5))))
    val wantByT = want.groupMap(_._1)(_._2)
    val got = (0 until coll.numViews).map(t => expand(coll.delta(t)))
    assert(want.nonEmpty, s"${coll.name}: empty stream")
    assert(got.size == coll.numViews, coll.name)
    for (t <- 0 until coll.numViews)
      assert(got(t) == wantByT.getOrElse(t, Nil), s"${coll.name} view $t")
    assert(got.map(_.size).sum == coll.totalDiffs, coll.name)
    assert(coll.totalDiffs == want.size, coll.name)
  }

  private lazy val communities = GraphGen.communityGraph(spark, nV = 100, nE = 400, nComm = 12)
  private val removed = (0 until 10).combinations(5).toSeq
  private val removalTexts =
    removed.map(_.map(c => s"src.comm != $c and dst.comm != $c").mkString(" and "))
  private val removalGvdl = removed.zip(removalTexts)
    .map { case (s, p) => s"[drop-${s.mkString("-")}: $p]" }
    .mkString("create view collection removal on communities ", ", ", "")

  test("10C5 community removal: the stream is the per-edge stream (Graphsurge order)") {
    val coll = ViewCollection.fromGvdl(communities, removalGvdl, ViewCollection.GraphsurgeOrder)
    assert(coll.numViews == 252)
    assert(coll.cct.patterns > 1 && coll.cct.patterns < coll.ebm.get.count())
    assertStreamIsReference(coll)
  }

  test("10C5 community removal: the stream is the per-edge stream (random order)") {
    assertStreamIsReference(
      ViewCollection.fromGvdl(communities, removalGvdl, ViewCollection.RandomOrder(5)))
  }

  test("three-valued-logic collection: the stream is the per-edge stream") {
    val gvdl = nullTexts.zipWithIndex.map { case (p, j) => s"[n$j: $p]" }
      .mkString("create view collection nulls on g ", ", ", "")
    assertStreamIsReference(ViewCollection.fromGvdl(nullGraph, gvdl, ViewCollection.GraphsurgeOrder))
  }

  test("duration chain in the given order: the stream is the per-edge stream") {
    val gvdl = Seq(4, 8, 12, 16, 25, 34).map(d => s"[D$d: duration <= $d]")
      .mkString("create view collection chain on Calls ", ", ", "")
    assertStreamIsReference(ViewCollection.fromGvdl(graph, gvdl))
  }

  private lazy val shuffled = {
    val gvdl = Seq(4, 1, 3, 0, 2).map(j => s"[p$j: ${predTexts(j)}]")
      .mkString("create view collection c on Calls ", ", ", "")
    ViewCollection.fromGvdl(graph, gvdl, ViewCollection.GraphsurgeOrder)
  }

  test("delta(t) is the difference stream, position by position and in order") {
    assert(shuffled.order != shuffled.order.sorted, "the Graphsurge order is the identity")
    assertStreamIsReference(shuffled)

    val rnd = new Random(7)
    val init = TestGraphs.randomEdges(rnd, 20, 60)
    // The fifth view returns to the first, re-adding the eids deleted since,
    // and the sixth repeats it.
    val views = TestGraphs.perturbationViews(rnd, 20, init, 4, 5, 5) :+ init :+ init
    val coll = TestGraphs.collectionFrom("explicit", views)
    val ds = (0 until coll.numViews).map(coll.delta)
    assert(ds.map(_.size).sum == coll.totalDiffs)
    assert(ds.last.size == 0) // a view identical to the one before it
    for (t <- views.indices)
      assert(eids(coll.viewEdges(t)) == views(t).map(_.eid).toSet, s"view $t")
  }

  test("viewEdges(t) is the EBM's view at position t (Graphsurge order)") {
    val m = shuffled.ebm.get
    for (t <- 0 until shuffled.numViews)
      assert(eids(shuffled.viewEdges(t)) == eids(EbmReference.viewEdges(m, shuffled.order(t))),
             s"view $t")
  }

  test("viewEdges(t) gives every edge's eid, src, dst and weight") {
    val m = shuffled.ebm.get
    for (t <- 0 until shuffled.numViews)
      assert(edgeRows(shuffled.viewEdges(t)) == edgeRows(EbmReference.viewEdges(m, shuffled.order(t))),
             s"view $t")
    // Eid 0 comes back with other endpoints and weight, and eid 1 with the same.
    val d = ViewCollection.Delta
    val coll = ViewCollection.fromExplicitDiffs("returns", Seq(
      Seq(d(0, 0, 1, 2.0, 1), d(1, 1, 2, 1.0, 1), d(2, 2, 0, 4.0, 1)),
      Seq(d(0, 0, 0, 0.0, -1), d(1, 0, 0, 0.0, -1)),
      Seq(d(0, 3, 1, 5.0, 1), d(1, 1, 2, 1.0, 1))))
    assert((0 until 3).map(t => edgeRows(coll.viewEdges(t))) == Seq(
      Seq((0L, 0L, 1L, 2.0), (1L, 1L, 2L, 1.0), (2L, 2L, 0L, 4.0)),
      Seq((2L, 2L, 0L, 4.0)),
      Seq((0L, 3L, 1L, 5.0), (1L, 1L, 2L, 1.0), (2L, 2L, 0L, 4.0))))
  }

  test("diff multiplicities are only +1/-1 and first occurrence is +1") {
    val rows = stream(columns, 0 until predTexts.size).flatten
    assert(rows.nonEmpty && rows.forall(d => math.abs(d._5) == 1))
    // Positions are in ascending t, and groupBy keeps each edge's rows in order.
    assert(rows.groupBy(_._1).values.forall(_.head._5 == 1))
  }

  test("countDiffs equals materialized stream length for any order") {
    val order = Seq(3, 0, 4, 1, 2)
    val n = DiffStream.countDiffs(ebm, order)
    assert(n == DiffStream.count(columns.patterns, order))
    assert(n == stream(columns, order).map(_.size).sum)
  }

  test("inclusion-chain order yields fewer diffs than a bad order") {
    // duration<=5 ⊂ duration<=12 ⊂ duration<=20: the chain order only adds.
    val chain = DiffStream.countDiffs(ebm, Seq(0, 1, 2))
    val bad   = DiffStream.countDiffs(ebm, Seq(0, 2, 1))
    assert(chain <= bad)
  }

  test("paper worked example: row (1110) has 1 block but 2 diffs") {
    import spark.implicits._
    val df = Seq((1L, 1, 1, 1, 0)).toDF("eid", "a", "b", "c", "d")
    val packed = Ebm.fromBoolColumns(df,
      Seq(col("a") === 1, col("b") === 1, col("c") === 1, col("d") === 1))
    assert(DiffStream.count(packed.patterns, 0 until 4) == 2)
  }

  test("Figure 5 example matrix produces the paper's difference stream") {
    import spark.implicits._
    // Rows e0..e4 over views GV1..GV3 (Figure 5a).
    val rows = Seq(
      (0L, 1, 0, 0), (1L, 1, 0, 1), (2L, 0, 0, 1), (3L, 0, 1, 1), (4L, 1, 1, 1))
    val df = rows.toDF("eid", "v1", "v2", "v3")
      .withColumn("src", col("eid")).withColumn("dst", col("eid") + 1)
    val packed = Ebm.fromBoolColumns(df,
      Seq(col("v1") === 1, col("v2") === 1, col("v3") === 1))
    val diffs = stream(packed, Seq(0, 1, 2)).zipWithIndex
      .flatMap { case (ds, t) => ds.map(d => (d._1, t, d._5)) }.toSet
    val expected = Set(
      (0L, 0, 1), (0L, 1, -1),
      (1L, 0, 1), (1L, 1, -1), (1L, 2, 1),
      (2L, 2, 1),
      (3L, 1, 1),
      (4L, 0, 1))
    assert(diffs == expected)
  }

  /** `body` with the session's `key` set to `value`. */
  private def withConf[A](key: String, value: String)(body: => A): A = {
    val old = spark.conf.get(key)
    spark.conf.set(key, value)
    try body finally spark.conf.set(key, old)
  }

  /** `body` with `n` shuffle partitions, so `resolved` reads `n` partitions
    * when it is collected; the EBM kernel itself reads no partitions.
    */
  private def withShufflePartitions[A](n: Int)(body: => A): A =
    withConf("spark.sql.shuffle.partitions", n.toString)(body)

  private def leaves(e: Ast.Expr): Seq[Ast.Expr] = e match {
    case Ast.And(l, r) => leaves(l) ++ leaves(r)
    case Ast.Or(l, r)  => leaves(l) ++ leaves(r)
    case Ast.Not(x)    => leaves(x)
    case leaf          => Seq(leaf)
  }

  /** `Ebm.columns` against the frame path: `resolved` with every view and
    * atom as a Catalyst column, collected, ordered by `eid` (the EBM order),
    * and bits set on the driver where a view is TRUE. The columns hold the
    * frame's rows in that order, every
    * edge's pattern id names its bits, and the pattern table lists the
    * frame's distinct bits in order of first occurrence with their counts.
    * Returns the frame path's partition count and whether two partitions
    * reach one bit pattern from different atom vectors.
    */
  private def assertColumnsAreFramePath(g: PropertyGraph, texts: Seq[String]): (Int, Boolean) = {
    val ps = texts.map(Parser.parsePredicate)
    val atoms = ps.flatMap(leaves).distinct
    val cols = g.resolved.columns.toSeq
    val weight = if (cols.contains("weight")) coalesce(col("weight"), lit(1.0)) else lit(1.0)
    val rows = g.resolved.select(
      Seq(col("eid").cast("long"), col("src").cast("long"), col("dst").cast("long"),
          weight.cast("double"), spark_partition_id()) ++
      (ps ++ atoms).map(Compiler.edgePredicate(_, cols)): _*).collect().toSeq.sortBy(_.getLong(0))
    def truth(r: org.apache.spark.sql.Row, i: Int): Option[Boolean] =
      if (r.isNullAt(i)) None else Some(r.getBoolean(i))
    val bits = rows.map { r =>
      val b = new Array[Long](Ebm.words(ps.size))
      for (j <- ps.indices if truth(r, 5 + j).contains(true)) b(j / 64) |= 1L << (j % 64)
      b.toSeq
    }
    val c = Ebm.columns(g, ps)
    assert(c.size == rows.size)
    for ((r, i) <- rows.zipWithIndex) {
      assert((c.eid(i), c.src(i), c.dst(i), c.weight(i)) ==
               ((r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3))), s"row $i")
      assert(c.bits(c.pattern(i)) == bits(i), s"row $i bits")
    }
    val histogram = bits.groupMapReduce(identity)(_ => 1L)(_ + _)
    assert(c.patterns == bits.distinct.map(b => (b, histogram(b))))
    val framed = c.frame(spark).collect().toSeq
      .map(r => (r.getLong(0), r.getLong(1), r.getLong(2), r.getDouble(3), r.getSeq[Long](4)))
    assert(framed == (0 until c.size).map(i =>
      (c.eid(i), c.src(i), c.dst(i), c.weight(i), c.bits(c.pattern(i)))))

    val byBits = rows.zip(bits).groupMap(_._2) { case (r, _) =>
      (r.getInt(4), atoms.indices.map(a => truth(r, 5 + ps.size + a)))
    }
    val crossed = byBits.values.exists { rs =>
      rs.exists { case (p, v) => rs.exists { case (q, u) => p != q && v != u } }
    }
    (rows.map(_.getInt(4)).distinct.size, crossed)
  }

  test("the kernel's driver columns are the frame path row for row, in EBM order") {
    withShufflePartitions(5) {
      assertColumnsAreFramePath(nullGraph, nullTexts)
      val (callParts, _) = assertColumnsAreFramePath(graph, predTexts)
      assert(callParts >= 4, s"$callParts partitions")
      val (parts, crossed) = assertColumnsAreFramePath(communities, removalTexts)
      assert(parts >= 4 && crossed, s"$parts partitions; crossed = $crossed")
    }
  }

  test("Ebm.columns is the same in ascending eid under any partitioning and join") {
    val ps = removalTexts.map(Parser.parsePredicate)
    def fresh(): Ebm.Columns = Ebm.columns(PropertyGraph(communities.nodes, communities.edges), ps)
    def flat(c: Ebm.Columns) = (0 until c.size).map(i =>
      (c.eid(i), c.src(i), c.dst(i), c.weight(i), c.bits(c.pattern(i))))
    val runs = for (parts <- Seq(5, 64); broadcast <- Seq("-1", "10485760")) yield
      withShufflePartitions(parts) {
        withConf("spark.sql.autoBroadcastJoinThreshold", broadcast) {
          val (a, b) = (fresh(), fresh())
          assert(a.eid.toSeq == b.eid.toSeq && a.pattern.toSeq == b.pattern.toSeq &&
                   a.bits == b.bits && flat(a) == flat(b), s"$parts partitions, broadcast $broadcast")
          a
        }
      }
    val want = runs.head
    assert(want.size == communities.edges.count())
    assert(want.eid.toSeq == want.eid.toSeq.sorted && want.eid.distinct.length == want.size)
    for (c <- runs.tail)
      assert(c.eid.toSeq == want.eid.toSeq && c.pattern.toSeq == want.pattern.toSeq &&
               c.bits == want.bits && flat(c) == flat(want))
  }

  test("a GVDL collection read over five partitions keeps one pattern table") {
    withShufflePartitions(5) {
      val coll = ViewCollection.fromGvdl(communities, removalGvdl, ViewCollection.GraphsurgeOrder)
      assertStreamIsReference(coll)
      val patterns = Ebm.patterns(coll.ebm.get)
      assert(patterns == coll.columns.patterns)
      assert(coll.cct.patterns == patterns.size)
      assert(coll.totalDiffs == DiffStream.count(patterns, coll.order))
    }
  }

  test("the frame functions read only bits: a bits-only frame gives the columns' figures") {
    val c = Ebm.columns(communities, removalTexts.map(Parser.parsePredicate))
    val bitsOnly = c.frame(spark).select("bits")
    val k = removalTexts.size
    assert(Ebm.patterns(bitsOnly) == c.patterns)
    assert(Hamming.distances(bitsOnly, k).map(_.toSeq).toSeq ==
             Hamming.fromPatterns(c.patterns, k).map(_.toSeq).toSeq)
    for (order <- Seq(0 until k, CollectionOrderer.randomOrder(k, 3)))
      assert(DiffStream.countDiffs(bitsOnly, order) == DiffStream.count(c.patterns, order))
  }
}
