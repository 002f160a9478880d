package repro.algorithms

import repro.diff.VertexProgram

/** Weakly connected components: undirected min-label propagation.
  * `state_i(v) = min(vid, min over neighbors state_{i-1})` — converges to
  * the minimum vertex id in each component within diameter iterations.
  */
final case class Wcc() extends VertexProgram {
  val name = "WCC"
  override val undirected = true
  def init(vid: Long): Double = vid.toDouble
  def msg(value: Double, weight: Double, srcDeg: Long): Double = value
  val aggIsMin = true
  def combine(init: Double, agg: Double): Double = math.min(init, agg)
}

/** Breadth-first search from a fixed source: hop distances along out-edges.
  * `state_i(v)` = length of the shortest path of ≤ i edges, so values are
  * monotone per view yet can legitimately grow across views when edges are
  * deleted (the replay recomputes affected vertices in full).
  */
final case class Bfs(source: Long) extends VertexProgram {
  val name = "BFS"
  def init(vid: Long): Double = if (vid == source) 0.0 else Double.PositiveInfinity
  def msg(value: Double, weight: Double, srcDeg: Long): Double = value + 1.0
  val aggIsMin = true
  def combine(init: Double, agg: Double): Double = math.min(init, agg)
}

/** Bellman-Ford single-source shortest paths (the paper's BF running
  * example, §2): `state_i(v)` = weight of the cheapest path of ≤ i edges.
  * Negative weights are supported. A negative cycle reachable from the
  * source has no fixpoint: its vertices' values fall at every iteration
  * until `maxIterations`, and the run reports `Stop.Cap`.
  */
final case class Sssp(source: Long) extends VertexProgram {
  val name = "BF"
  def init(vid: Long): Double = if (vid == source) 0.0 else Double.PositiveInfinity
  def msg(value: Double, weight: Double, srcDeg: Long): Double = value + weight
  val aggIsMin = true
  def combine(init: Double, agg: Double): Double = math.min(init, agg)
}

/** PageRank with damping 0.85, fixed iteration count, no dangling-mass
  * redistribution (matching typical DD formulations):
  * `state_i(v) = 0.15 + 0.85 Σ_{(u,v)} state_{i-1}(u)/outdeg(u)`.
  * Degree-dependent: one edge diff at u perturbs all of u's messages —
  * the canonical "unstable" program of §5.
  */
final case class PageRankProg(iters: Int = 10) extends VertexProgram {
  val name = "PR"
  override val degreeDependent = true
  override val fixedIterations = Some(iters)
  def init(vid: Long): Double = 0.15
  def msg(value: Double, weight: Double, srcDeg: Long): Double = value * 0.85 / srcDeg.toDouble
  val aggIsMin = false
  def combine(init: Double, agg: Double): Double = 0.15 + agg
}
