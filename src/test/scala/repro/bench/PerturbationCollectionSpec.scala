package repro.bench

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import repro.ReproSpec
import repro.diff.Engine
import repro.graph.GraphGen

/** `BenchUtil.perturbationCollection` builds every view's δ on the driver.
  * Its stream must hold, position by position, the rows the Spark-plan
  * construction it replaced builds from the same draws, as a multiset: a
  * slice lists them in ascending row order, deletions before additions.
  */
class PerturbationCollectionSpec extends ReproSpec {

  /** A stream row: `eid, src, dst, weight, diff`. */
  private type Diff = (Long, Long, Long, Double, Int)

  /** The Spark-plan construction: per view an `orderBy`/`limit` over the
    * current edges, a `spark.range` of additions and a `left_anti` join,
    * every frame checkpointed; the per-view frames are unioned into one
    * stream. Returns each position's rows `(eid, src, dst, weight, diff)`.
    */
  private def sparkPlanDeltas(spark: SparkSession, edges: DataFrame, nV: Long, views: Int,
                              addN: Int, delN: Int, seed: Long): IndexedSeq[Seq[Diff]] = {
    var current = Engine.ckpt(edges.select("eid", "src", "dst", "weight"))
    val perView = Seq.newBuilder[DataFrame]
    perView += current.withColumn("diff", lit(1))
    for (v <- 1 until views) {
      val dels = Engine.ckpt(
        current.orderBy(xxhash64(col("eid"), lit(seed + v))).limit(delN))
      val adds = Engine.ckpt(
        spark.range(addN).select(
          (lit(1000000L * v + seed * 100000000L) + col("id")).as("eid"),
          GraphGen.hu(col("id"), seed + 31 * v).multiply(nV).cast("long").as("src"),
          GraphGen.hu(col("id"), seed + 37 * v).multiply(nV).cast("long").as("dst"),
          lit(1.0).as("weight"))
          .where(col("src") =!= col("dst")))
      perView += adds.withColumn("diff", lit(1))
        .unionByName(dels.withColumn("diff", lit(-1)))
      current = Engine.ckpt(
        current.join(dels.select("eid"), Seq("eid"), "left_anti").unionByName(adds))
    }
    val stream = Engine.ckpt(perView.result().zipWithIndex
      .map { case (df, t) =>
        df.select(lit(t).as("t"), col("eid"), col("src"), col("dst"),
                  coalesce(col("weight"), lit(1.0)).as("weight"), col("diff"))
      }
      .reduce(_ unionByName _))
    val byT = IndexedSeq.fill(views)(Vector.newBuilder[Diff])
    stream.collect().foreach(r => byT(r.getInt(0)) +=
      ((r.getLong(1), r.getLong(2), r.getLong(3), r.getDouble(4), r.getInt(5))))
    byT.map(_.result())
  }

  // (name, |V|, |E|, graph seed, views, additions, deletions, collection seed)
  private val configs = Seq(
    ("perturb-small shape", 60L, 1000L, 3L, 5, 4, 4, 1234L),
    ("Table 2 C-small at scale 0.1", 2000L, 10000L, 11L, 5, 15, 15, 101L),
    ("Table 2 C-large at scale 0.1", 2000L, 10000L, 11L, 5, 2000, 1500, 202L),
    ("deletions outnumber the edges, many self-loop draws", 5L, 10L, 7L, 4, 3, 20, 9L))

  test("the driver-built stream equals the Spark-plan construction row for row") {
    for ((name, nV, nE, gSeed, views, addN, delN, seed) <- configs) {
      val edges = Engine.ckpt(GraphGen.randomGraph(spark, nV, nE, gSeed).topology)
      val want = sparkPlanDeltas(spark, edges, nV, views, addN, delN, seed)
      val coll = BenchUtil.perturbationCollection(spark, name, edges, nV, views,
                                                  addN, delN, seed)
      val slices = (0 until views).map(coll.delta)
      val got = slices.map { s =>
        val c = s.columns
        (0 until s.size).map(k => (c.eid(s.row(k)), s.src(k), s.dst(k), s.weight(k), s.diff(k)))
      }
      assert(coll.numViews == views, name)
      for (t <- 0 until views) {
        assert(got(t).sorted == want(t).sorted, s"$name: view $t")
        // Ascending rows, which put the deletions first.
        val rows = (0 until slices(t).size).map(slices(t).row)
        assert(rows == rows.sorted && rows.distinct == rows, s"$name: view $t row order")
        assert(got(t).map(_._5) == got(t).map(_._5).sorted, s"$name: view $t deletions first")
      }
      assert(coll.totalDiffs == want.map(_.size.toLong).sum, name)
      // The draws must be non-trivial: every later view both adds and deletes.
      for (t <- 1 until views) {
        assert(got(t).exists(_._5 > 0) && got(t).exists(_._5 < 0), s"$name: view $t")
      }
    }
  }
}
