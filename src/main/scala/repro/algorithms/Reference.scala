package repro.algorithms

import scala.collection.mutable

/** Textbook reference implementations used as correctness oracles for the
  * analytics' scratch runs and differential replays (graph fixpoints are
  * not SQL queries, so the DuckDB oracle does not apply; these small,
  * well-known algorithms play that role instead). They share no code with
  * [[repro.diff.VertexProgram.step]] or [[Scc]].
  *
  * All take plain edge lists and a vertex universe and return per-vertex
  * results with semantics matching the corresponding [[VertexProgram]]
  * exactly (e.g. PageRank without dangling-mass redistribution).
  */
object Reference {

  /** Union-find WCC: component id = minimum member vid. */
  def wcc(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Double] = {
    val parent = mutable.Map.empty[Long, Long]
    def find(x: Long): Long = {
      var r = x
      while (parent.getOrElse(r, r) != r) r = parent.getOrElse(r, r)
      var c = x
      while (parent.getOrElse(c, c) != c) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    vertices.foreach(v => parent(v) = v)
    edges.foreach { case (a, b) =>
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
    }
    // Normalize roots to min member.
    val minOf = mutable.Map.empty[Long, Long]
    vertices.foreach { v => val r = find(v); minOf(r) = math.min(minOf.getOrElse(r, v), v) }
    vertices.map(v => v -> minOf(find(v)).toDouble).toMap
  }

  /** Directed BFS hop distances from `source`. */
  def bfs(vertices: Seq[Long], edges: Seq[(Long, Long)], source: Long): Map[Long, Double] = {
    val adj = edges.groupBy(_._1).map { case (k, v) => k -> v.map(_._2) }
    val dist = mutable.Map.empty[Long, Double]
    vertices.foreach(v => dist(v) = Double.PositiveInfinity)
    if (dist.contains(source)) {
      dist(source) = 0.0
      val q = mutable.Queue(source)
      while (q.nonEmpty) {
        val u = q.dequeue()
        adj.getOrElse(u, Nil).foreach { v =>
          if (dist(v).isInfinity) { dist(v) = dist(u) + 1; q += v }
        }
      }
    }
    dist.toMap
  }

  /** Bellman-Ford shortest path weights from `source`. Negative weights
    * are handled; with a negative cycle reachable from `source` the result
    * is whatever |V| + 1 relaxation rounds leave.
    */
  def bellmanFord(vertices: Seq[Long], edges: Seq[(Long, Long, Double)],
                  source: Long): Map[Long, Double] = {
    val dist = mutable.Map.empty[Long, Double]
    vertices.foreach(v => dist(v) = Double.PositiveInfinity)
    dist(source) = 0.0
    var changed = true
    var rounds = 0
    while (changed && rounds <= vertices.size + 1) {
      changed = false
      rounds += 1
      edges.foreach { case (u, v, w) =>
        if (!dist(u).isInfinity && dist(u) + w < dist(v) - 1e-12) {
          dist(v) = dist(u) + w
          changed = true
        }
      }
    }
    dist.toMap
  }

  /** PageRank, damping 0.85, `iters` synchronous iterations, no dangling
    * redistribution: pr_i(v) = 0.15 + 0.85 Σ_in pr_{i-1}(u)/outdeg(u).
    */
  def pageRank(vertices: Seq[Long], edges: Seq[(Long, Long)], iters: Int): Map[Long, Double] = {
    val outDeg = edges.groupBy(_._1).map { case (k, v) => k -> v.size }
    val inAdj  = edges.groupBy(_._2).map { case (k, v) => k -> v.map(_._1) }
    var pr = vertices.map(_ -> 0.15).toMap
    for (_ <- 1 to iters) {
      pr = vertices.map { v =>
        v -> (0.15 + 0.85 * inAdj.getOrElse(v, Nil).map(u => pr(u) / outDeg(u)).sum)
      }.toMap
    }
    pr
  }

  /** Iterative Tarjan SCC; component id = minimum member vid. */
  def scc(vertices: Seq[Long], edges: Seq[(Long, Long)]): Map[Long, Long] = {
    val adj = edges.groupBy(_._1).map { case (k, v) => k -> v.map(_._2).toArray }
    val index = mutable.Map.empty[Long, Int]
    val low   = mutable.Map.empty[Long, Int]
    val onStk = mutable.Set.empty[Long]
    val stk   = mutable.ArrayBuffer.empty[Long]
    val comp  = mutable.Map.empty[Long, Long]
    var counter = 0

    // Explicit-stack Tarjan to avoid recursion limits.
    final case class Frame(v: Long, var childIdx: Int)
    vertices.foreach { root =>
      if (!index.contains(root)) {
        val frames = mutable.ArrayBuffer(Frame(root, 0))
        index(root) = counter; low(root) = counter; counter += 1
        stk += root; onStk += root
        while (frames.nonEmpty) {
          val f = frames.last
          val children = adj.getOrElse(f.v, Array.empty[Long])
          if (f.childIdx < children.length) {
            val w = children(f.childIdx)
            f.childIdx += 1
            if (!index.contains(w)) {
              index(w) = counter; low(w) = counter; counter += 1
              stk += w; onStk += w
              frames += Frame(w, 0)
            } else if (onStk(w)) {
              low(f.v) = math.min(low(f.v), index(w))
            }
          } else {
            if (low(f.v) == index(f.v)) {
              val members = mutable.ArrayBuffer.empty[Long]
              var done = false
              while (!done) {
                val w = stk.remove(stk.size - 1)
                onStk -= w
                members += w
                if (w == f.v) done = true
              }
              val rep = members.min
              members.foreach(m => comp(m) = rep)
            }
            frames.remove(frames.size - 1)
            if (frames.nonEmpty) {
              val p = frames.last
              low(p.v) = math.min(low(p.v), low(f.v))
            }
          }
        }
      }
    }
    vertices.map(v => v -> comp(v)).toMap
  }
}
