package repro.graph

import org.apache.spark.sql.{Column, SparkSession}
import org.apache.spark.sql.catalyst.expressions.XXH64
import org.apache.spark.sql.functions._

/** Deterministic synthetic graph generators — laptop-scale analogs of the
  * paper's datasets (DESIGN.md §2 documents each substitution).
  *
  * All randomness is hash-based (`xxhash64` of the row id and a seed), so a
  * generated frame is identical no matter how Spark partitions it — unlike
  * `rand()`, whose draws depend on the partition layout. That keeps the
  * DuckDB oracle and reference implementations in exact agreement with the
  * Spark side.
  */
object GraphGen {

  /** Hash-based uniform double in [0, 1), deterministic in (column, seed). */
  def hu(c: Column, seed: Long): Column =
    (pmod(xxhash64(c, lit(seed)), lit(1000000007L)).cast("double") / 1000000007.0)

  /** Spark's `xxhash64(id, lit(seed))` of a long id, on the driver. */
  def hash(id: Long, seed: Long): Long = XXH64.hashLong(seed, XXH64.hashLong(id, 42))

  /** [[hu]] of a long id, on the driver. */
  def huOf(id: Long, seed: Long): Double =
    java.lang.Math.floorMod(hash(id, seed), 1000000007L) / 1000000007.0

  /** Uniform long in [0, n). */
  private def hlong(c: Column, seed: Long, n: Long): Column =
    (hu(c, seed) * n).cast("long")

  // -------------------------------------------------------------------
  // Fig. 1 running example: the phone Calls graph.
  // -------------------------------------------------------------------

  /** Random call graph with the paper's running-example schema: customers
    * (profession, city, state) and calls (duration ∈ [1,34], year).
    */
  def callGraph(spark: SparkSession, nV: Int = 200, nE: Int = 1200,
                seed: Long = 7): PropertyGraph = {
    val professions = array(Seq("doctor", "lawyer", "teacher", "engineer").map(lit): _*)
    val cities      = array(Seq("NY", "LA", "DC", "SF").map(lit): _*)
    val states      = array(Seq("NY", "CA", "DC", "CA").map(lit): _*)
    val nodes = spark.range(nV).select(
      col("id"),
      element_at(professions, (hu(col("id"), seed) * 4 + 1).cast("int")).as("profession"),
      element_at(cities, (hu(col("id"), seed + 1) * 4 + 1).cast("int")).as("city"),
      element_at(states, (hu(col("id"), seed + 1) * 4 + 1).cast("int")).as("state"),
    )
    val edges = spark.range(nE).select(
      col("id").as("eid"),
      hlong(col("id"), seed + 2, nV).as("src"),
      hlong(col("id"), seed + 3, nV).as("dst"),
      (hu(col("id"), seed + 4) * 34 + 1).cast("int").as("duration"),
      (hu(col("id"), seed + 5) * 11 + 2010).cast("int").as("year"),
    ).withColumn("weight", col("duration").cast("double"))
     .where(col("src") =!= col("dst"))
    PropertyGraph(nodes, edges)
  }

  // -------------------------------------------------------------------
  // Orkut analog (Table 2): uniform random digraph.
  // -------------------------------------------------------------------

  /** Uniform random digraph with unit-ish weights; self-loops removed. */
  def randomGraph(spark: SparkSession, nV: Long, nE: Long,
                  seed: Long = 11): PropertyGraph = {
    val nodes = spark.range(nV).toDF("id")
    val edges = spark.range(nE).select(
      col("id").as("eid"),
      hlong(col("id"), seed, nV).as("src"),
      hlong(col("id"), seed + 1, nV).as("dst"),
      (hu(col("id"), seed + 2) * 9 + 1).cast("int").cast("double").as("weight"),
    ).where(col("src") =!= col("dst"))
    PropertyGraph(nodes, edges)
  }

  // -------------------------------------------------------------------
  // Semantic Scholar citation analog (Table 3): year + co-author count.
  // -------------------------------------------------------------------

  /** Citation graph: node ids are ordered by publication year (few old
    * papers, many recent — density grows with year, as in real citation
    * corpora), `year` ∈ [1936, 2020], `authors` ∈ [1, 25] skewed small.
    * Edges cite strictly older ids; a small noise fraction points anywhere,
    * so a few non-trivial SCCs exist (as in the real corpus, which is not a
    * perfect DAG).
    */
  def citationGraph(spark: SparkSession, nV: Long, nE: Long,
                    seed: Long = 17): PropertyGraph = {
    val yearOf: Column => Column = id =>
      (lit(1936) + floor(lit(85.0) * sqrt(id.cast("double") / nV))).cast("int")
    val nodes = spark.range(nV).select(
      col("id"),
      yearOf(col("id")).as("year"),
      (lit(1) + floor(lit(25.0) * pow(hu(col("id"), seed), 2.0))).cast("int").as("authors"),
    )
    val edges = spark.range(nE).select(
      col("id").as("eid"),
      (hlong(col("id"), seed + 1, nV - 1) + 1).as("src"),
      hu(col("id"), seed + 2).as("__u"),
      hu(col("id"), seed + 3).as("__v"),
    ).select(
      col("eid"), col("src"),
      // 3% noise edges point anywhere (creates cycles); the rest cite a
      // strictly older paper with a strong recency bias (u⁴ gap draw) —
      // real citations skew recent, and the bias keeps per-year-window
      // subgraphs dense enough to have small diameters.
      when(col("__u") < 0.03, (col("__v") * nV).cast("long"))
        .otherwise(col("src") - 1 -
                   floor(pow(col("__v"), 4.0) * col("src")).cast("long")).as("dst"),
    ).withColumn("weight", lit(1.0))
     .where(col("src") =!= col("dst") && col("dst") >= 0)
    PropertyGraph(nodes, edges)
  }

  // -------------------------------------------------------------------
  // LiveJournal / wiki-topcats analogs (Table 4): planted communities.
  // -------------------------------------------------------------------

  /** Planted-partition graph: `nComm` ground-truth communities with
    * decreasing sizes occupy contiguous id ranges; `pIntra` of the edges
    * stay within a community (picked with a size-proportional-ish skew),
    * the rest are uniform cross edges. Node property `comm: Int`.
    *
    * Simplification vs the real datasets: single community membership per
    * node (the paper's node-removal views delete all nodes of k chosen
    * communities; single membership preserves that structure).
    */
  def communityGraph(spark: SparkSession, nV: Long, nE: Long, nComm: Int,
                     pIntra: Double = 0.85, seed: Long = 19): PropertyGraph = {
    // Community sizes ∝ 1/(c+2)^0.6, computed on the driver (nComm is small).
    val raw  = (0 until nComm).map(c => 1.0 / math.pow(c + 2, 0.6))
    val tot  = raw.sum
    val size = raw.map(w => math.max(2L, (w / tot * nV).toLong))
    val start = size.scanLeft(0L)(_ + _)
    val nUsed = start.last min nV

    // UDFs instead of nested when-chains: a dozen-deep CASE WHEN tree
    // makes janino's whole-stage compilation blow up, while a plain Scala
    // closure over the (tiny) driver-computed boundary arrays is trivially
    // compiled and just as deterministic.
    val startArr = start.toArray
    val sizeArr  = size.toArray
    val cumArr   = size.map(_.toDouble / nUsed).scanLeft(0.0)(_ + _).toArray
    val commOfU = udf { (id: Long) =>
      val i = (0 until nComm).find(c => id >= startArr(c) && id < startArr(c + 1))
      i.getOrElse(nComm)
    }
    val endpointU = udf { (intra: Double, u: Double, a: Double) =>
      if (intra < pIntra) {
        var c = nComm - 1
        var i = 0
        while (i < nComm) { if (u >= cumArr(i) && u < cumArr(i + 1)) c = i; i += 1 }
        startArr(c) + (a * sizeArr(c)).toLong
      } else (a * nV).toLong
    }

    val nodes = spark.range(nV).select(col("id"), commOfU(col("id")).as("comm"))

    val e0 = spark.range(nE).select(
      col("id").as("eid"),
      hu(col("id"), seed).as("__intra"),
      hu(col("id"), seed + 1).as("__c"),
      hu(col("id"), seed + 2).as("__a"),
      hu(col("id"), seed + 3).as("__b"),
    )
    val edges = e0.select(
      col("eid"),
      endpointU(col("__intra"), col("__c"), col("__a")).as("src"),
      endpointU(col("__intra"), col("__c"), col("__b")).as("dst"),
    ).withColumn("weight", lit(1.0))
     .where(col("src") =!= col("dst"))
    PropertyGraph(nodes, edges)
  }

  // -------------------------------------------------------------------
  // Fig. 3 / Table 1: the Bellman-Ford worked example.
  // -------------------------------------------------------------------

  /** The paper's 4-vertex Bellman-Ford example (s=0, w1=1, w2=2, w3=3)
    * plus a `zChain` of vertices hanging off s that the edge updates never
    * touch — the stand-in for the "billions of z_jk edges" whose
    * differences DD provably never recomputes.
    *
    * Edge list: (s,w1,2), (s,w2,10), (w1,w2,2), (w2,w3,2), and
    * s→z1→z2→…→zk with cost 1 each.
    */
  def bellmanFordExample(spark: SparkSession, zChain: Int = 100): PropertyGraph = {
    import spark.implicits._
    val wEdges = Seq(
      (0L, 0L, 1L, 2.0), (1L, 0L, 2L, 10.0), (2L, 1L, 2L, 2.0), (3L, 2L, 3L, 2.0))
    val zEdges = (0 until zChain).map { i =>
      val from = if (i == 0) 0L else 3L + i
      (100L + i, from, 4L + i, 1.0)
    }
    val edges = (wEdges ++ zEdges).toDF("eid", "src", "dst", "weight")
    val nodes = spark.range(4L + zChain).toDF("id")
    PropertyGraph(nodes, edges)
  }
}
