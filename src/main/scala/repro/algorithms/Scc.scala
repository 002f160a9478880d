package repro.algorithms

import scala.collection.mutable
import repro.diff.{Analytic, EdgeArrangement, Trace}
import repro.diff.EdgeArrangement.Delta
import repro.diff.Engine.RunResult

/** Strongly connected components, on the driver over the collection loop's
  * [[EdgeArrangement]].
  *
  * `fromScratch` is one iterative Tarjan DFS (Tarjan, "Depth-first search
  * and linear graph algorithms", SIAM J. Comput. 1972): linear in the
  * vertices and edges. The paper uses Orzan's doubly-iterative coloring
  * [27] because DD needs a dataflow algorithm; this SCC runs on one driver,
  * so it needs none (DESIGN.md §2).
  *
  * `advance` is condensation-based incremental maintenance (DESIGN.md
  * documents this substitution for DD's nested-iteration sharing): SCCs of
  * the previous view that lost no internal edge are still strongly
  * connected (edge additions never break an SCC, and deletions of
  * non-internal edges or self-loops don't either), so they contract to
  * super-nodes; broken SCCs expand to singletons; the same DFS then runs on
  * the quotient graph.
  *
  * SCC ids are canonical, the minimum member vid (as the double `value`),
  * so results compare directly with the Tarjan reference. A super-node's id
  * is its SCC's id, a member vid, and a singleton's is its own vid, so
  * super ids never collide and the quotient's canonical ids are again
  * minimum member vids. `iterations` is 1 (one DFS) and `workRows` counts
  * the vertices plus the edges the DFS visits. SCC keeps no iteration
  * trace: `advance` needs only the previous ids.
  */
object Scc extends Analytic {

  val name = "SCC"

  def fromScratch(vertices: Array[Long], edges: EdgeArrangement): RunResult =
    tarjan(vertices, edges.outNbrs(_, undirected = false))

  /** @param delta the view's difference set; its deletions decide which of
    *              `prev`'s SCCs break
    */
  def advance(edges: EdgeArrangement, delta: Seq[Delta], prev: RunResult): RunResult = {
    val scc = prev.finalState
    val broken = delta.iterator
      .filter(d => d.diff < 0 && d.src != d.dst && scc.get(d.src) == scc.get(d.dst))
      .flatMap(d => scc.get(d.src)).toSet
    val superOf = mutable.LongMap.from(scc.iterator.map { case (v, c) =>
      v -> (if (broken(c)) v else c.toLong)
    })

    val members = scc.keysIterator.toArray.groupBy(superOf)
    val q = tarjan(members.keysIterator.toArray, s => members(s).iterator.flatMap { v =>
      edges.outNbrs(v, undirected = false).map(u => superOf.getOrElse(u, u))
    })
    q.copy(finalState = scc.map { case (v, _) => v -> q.finalState(superOf(v)) })
  }

  /** Tarjan's DFS over `vertices` with successors `succ`, which may yield
    * self-loops, duplicates and vertices outside `vertices` (all ignored).
    * Each vertex's id is the minimum vid of its SCC. One frame stack serves
    * every root; a frame is a vertex and its successor iterator.
    */
  private def tarjan(vertices: Array[Long], succ: Long => Iterator[Long]): RunResult = {
    val n = vertices.length
    val at = mutable.LongMap.empty[Int]
    vertices.indices.foreach(i => at(vertices(i)) = i)
    val order = Array.fill(n)(-1) // discovery index; -1 while undiscovered
    val low = new Array[Int](n)
    val ids = new Array[Long](n)
    val onStack = new Array[Boolean](n)
    val stack = new Array[Int](n) // Tarjan's stack of unassigned vertices
    var sp = 0
    val frames = new Array[Int](n)
    val nbrs = new Array[Iterator[Long]](n)
    var fp = 0
    var discovered = 0
    var visited = 0L

    def discover(v: Int): Unit = {
      order(v) = discovered; low(v) = discovered; discovered += 1
      stack(sp) = v; sp += 1; onStack(v) = true
      frames(fp) = v; nbrs(fp) = succ(vertices(v)); fp += 1
    }

    for (root <- 0 until n if order(root) < 0) {
      discover(root)
      while (fp > 0) {
        val v = frames(fp - 1)
        val it = nbrs(fp - 1)
        if (it.hasNext) {
          visited += 1
          val w = at.getOrElse(it.next(), -1)
          if (w >= 0) {
            if (order(w) < 0) discover(w)
            else if (onStack(w)) low(v) = math.min(low(v), order(w))
          }
        } else {
          fp -= 1
          nbrs(fp) = null
          if (fp > 0) low(frames(fp - 1)) = math.min(low(frames(fp - 1)), low(v))
          if (low(v) == order(v)) { // v roots an SCC: the stack above it
            var k = sp
            var id = Long.MaxValue
            while ({ k -= 1; id = math.min(id, vertices(stack(k))); stack(k) != v }) ()
            while (sp > k) { sp -= 1; onStack(stack(sp)) = false; ids(stack(sp)) = id }
          }
        }
      }
    }
    RunResult(vertices.indices.iterator.map(i => vertices(i) -> ids(i).toDouble).toMap,
              Trace.empty, 1, n + visited)
  }
}
