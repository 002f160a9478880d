package repro.graph

import org.apache.spark.sql.functions._
import repro.ReproSpec

/** Generators: determinism, schema, and structural properties. */
class GraphGenSpec extends ReproSpec {

  test("hash randomness is partition-independent (re-evaluation is stable)") {
    val g = GraphGen.randomGraph(spark, 1000, 3000)
    val a = g.edges.agg(sum("src"), sum("dst")).collect()(0)
    val b = g.edges.repartition(7).agg(sum("src"), sum("dst")).collect()(0)
    assert(a == b)
  }

  test("call graph has the running-example schema") {
    val g = GraphGen.callGraph(spark)
    assert(g.nodePropCols.toSet == Set("profession", "city", "state"))
    assert(g.edgePropCols.toSet == Set("duration", "year", "weight"))
    val d = g.edges.agg(min("duration"), max("duration")).collect()(0)
    assert(d.getInt(0) >= 1 && d.getInt(1) <= 34)
  }

  test("resolved frame exposes src_/dst_ properties for every edge") {
    val g = GraphGen.callGraph(spark, nV = 50, nE = 200)
    val r = g.resolved
    assert(r.count() == g.edges.count())
    assert(r.where(col("src_city").isNull || col("dst_city").isNull).count() == 0)
  }

  test("citation graph cites older ids except noise edges") {
    val g = GraphGen.citationGraph(spark, 5000, 20000)
    val frac = g.edges.where(col("dst") >= col("src")).count().toDouble / g.edges.count()
    assert(frac < 0.06, s"forward-citation fraction $frac")
  }

  test("citation years are within [1936, 2020] and nondecreasing in id") {
    val g = GraphGen.citationGraph(spark, 5000, 1000)
    val mm = g.nodes.agg(min("year"), max("year")).collect()(0)
    assert(mm.getInt(0) >= 1936 && mm.getInt(1) <= 2021)
    val pairs = g.nodes.orderBy("id").select("year").collect().map(_.getInt(0))
    assert(pairs.sliding(2).forall { case Array(a, b) => a <= b; case _ => true })
  }

  test("community graph: most edges are intra-community") {
    val g = GraphGen.communityGraph(spark, 3000, 12000, nComm = 7)
    val withComm = g.resolved
    val intra = withComm.where(col("src_comm") === col("dst_comm")).count().toDouble
    assert(intra / g.numEdges > 0.6)
  }

  test("community sizes decrease with community id") {
    val g = GraphGen.communityGraph(spark, 5000, 1000, nComm = 6)
    val sizes = g.nodes.where(col("comm") < 6).groupBy("comm").count()
      .orderBy("comm").collect().map(_.getLong(1))
    assert(sizes.sliding(2).forall { case Array(a, b) => a >= b; case _ => true })
  }

  test("bellman-ford example has the paper's edge costs") {
    val g = GraphGen.bellmanFordExample(spark, zChain = 5)
    val m = g.edges.where(col("eid") < 100)
      .collect().map(r => (r.getLong(1), r.getLong(2)) -> r.getDouble(3)).toMap
    assert(m == Map((0L, 1L) -> 2.0, (0L, 2L) -> 10.0, (1L, 2L) -> 2.0, (2L, 3L) -> 2.0))
  }

  test("no self loops in generated graphs") {
    for (g <- Seq(GraphGen.randomGraph(spark, 500, 2000),
                  GraphGen.citationGraph(spark, 500, 2000),
                  GraphGen.communityGraph(spark, 500, 2000, 5))) {
      assert(g.edges.where(col("src") === col("dst")).count() == 0)
    }
  }

  test("edge ids are unique") {
    val g = GraphGen.communityGraph(spark, 2000, 8000, 8)
    assert(g.edges.select("eid").distinct().count() == g.edges.count())
  }

  test("driver hash and huOf equal Spark's xxhash64 and hu columns") {
    val seeds = Seq(0L, 1L, 42L, -5L, 132L, 20200000000L)
    for (seed <- seeds) {
      val rows = spark.range(-2500, 2500)
        .select(col("id"), xxhash64(col("id"), lit(seed)), GraphGen.hu(col("id"), seed))
        .collect()
      assert(rows.length == 5000)
      rows.foreach { r =>
        val id = r.getLong(0)
        assert(GraphGen.hash(id, seed) == r.getLong(1), s"hash($id, $seed)")
        assert(GraphGen.huOf(id, seed) == r.getDouble(2), s"huOf($id, $seed)")
      }
    }
  }
}
