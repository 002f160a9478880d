package repro.algorithms

import repro.diff.{Analytic, EdgeArrangement, Trace, VertexIndex}
import repro.diff.Engine.RunResult
import repro.views.DiffStream.Slice

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
  * so results compare directly with the Tarjan reference. Both run on the
  * arrangement's dense ids. A super-node is the member whose vid is its
  * SCC's id, and a singleton is itself, so the quotient's canonical ids are
  * again minimum member vids. `iterations` is 1 (one DFS) and `workRows`
  * counts the vertices plus the edges the DFS visits. SCC keeps no
  * iteration trace: `advance` needs only the previous ids.
  */
object Scc extends Analytic {

  val name = "SCC"

  /** The DFS over the view itself: its quotient where every vertex is its
    * own super-node.
    */
  def fromScratch(vertices: Array[Long], edges: EdgeArrangement): RunResult = {
    vertices.foreach(edges.index.add)
    condense(edges, Array.range(0, edges.index.size))
  }

  /** @param delta the view's difference set; its deletions decide which of
    *              `prev`'s SCCs break
    */
  def advance(edges: EdgeArrangement, delta: Slice, prev: RunResult): RunResult = {
    val index = edges.index
    val n = index.size
    val scc = prev.valuesOn(index, _.toDouble) // a vertex new to the run is a singleton
    // Each vertex's SCC representative: the member whose vid is the SCC's
    // id, or the vertex itself where that member has no id here.
    val rep = new Array[Int](n)
    for (v <- 0 until n) {
      val r = if (scc(v).toLong == index(v)) v else index.find(scc(v).toLong)
      rep(v) = if (r >= 0) r else v
    }
    val broken = new Array[Boolean](n)
    for (k <- 0 until delta.size if delta.diff(k) < 0 && delta.src(k) != delta.dst(k)) {
      val (s, t) = (index.find(delta.src(k)), index.find(delta.dst(k)))
      if (s >= 0 && t >= 0 && rep(s) == rep(t)) broken(rep(s)) = true
    }
    condense(edges, Array.tabulate(n)(v => if (broken(rep(v))) v else rep(v)))
  }

  /** One DFS over the view's quotient under `superOf`, which maps each
    * dense id to the member standing for its super-node; every vertex takes
    * its super-node's SCC id. The quotient's successor lists are the
    * members' out-edges, grouped per super-node in one counting pass:
    * super-node s owns `succ(start(s) until start(s + 1))`.
    */
  private def condense(edges: EdgeArrangement, superOf: Array[Int]): RunResult = {
    val n = superOf.length
    val start = new Array[Int](n + 1)
    for (v <- 0 until n) start(superOf(v) + 1) += edges.outAdj(v).size
    for (s <- 0 until n) start(s + 1) += start(s)
    val fill = start.clone()
    val succ = new Array[Int](start(n))
    for (v <- 0 until n) {
      val out = edges.outAdj(v)
      for (k <- 0 until out.size) { succ(fill(superOf(v))) = superOf(out.nbr(k)); fill(superOf(v)) += 1 }
    }
    val (ids, work) = tarjan(edges.index, (0 until n).filter(v => superOf(v) == v).toArray, start, succ)
    RunResult(Array.tabulate(n)(v => ids(superOf(v)).toDouble), Trace.empty(edges.index, _ => Double.NaN),
              1, work)
  }

  /** Tarjan's DFS over the dense ids `nodes` of `index`, node v's
    * successors being `succ(start(v) until start(v + 1))`, all nodes; they
    * may include v itself and repeat. Each node's SCC id is the minimum vid
    * of its SCC, and the work is the nodes plus the successors read. One
    * frame stack serves every root; a frame is a node and the slot of its
    * next successor.
    */
  private def tarjan(index: VertexIndex, nodes: Array[Int], start: Array[Int],
                     succ: Array[Int]): (Array[Long], Long) = {
    val n = index.size
    val order = Array.fill(n)(-1) // discovery index; -1 while undiscovered
    val low = new Array[Int](n)
    val ids = new Array[Long](n)
    val onStack = new Array[Boolean](n)
    val stack = new Array[Int](n) // Tarjan's stack of unassigned nodes
    var sp = 0
    val frames = new Array[Int](n)
    val next = new Array[Int](n)
    var fp = 0
    var discovered = 0
    var visited = 0L

    def discover(v: Int): Unit = {
      order(v) = discovered; low(v) = discovered; discovered += 1
      stack(sp) = v; sp += 1; onStack(v) = true
      frames(fp) = v; next(fp) = start(v); fp += 1
    }

    for (root <- nodes if order(root) < 0) {
      discover(root)
      while (fp > 0) {
        val v = frames(fp - 1)
        if (next(fp - 1) < start(v + 1)) {
          visited += 1
          val w = succ(next(fp - 1))
          next(fp - 1) += 1
          if (order(w) < 0) discover(w)
          else if (onStack(w)) low(v) = math.min(low(v), order(w))
        } else {
          fp -= 1
          if (fp > 0) low(frames(fp - 1)) = math.min(low(frames(fp - 1)), low(v))
          if (low(v) == order(v)) { // v roots an SCC: the stack above it
            var k = sp
            var id = Long.MaxValue
            while ({ k -= 1; id = math.min(id, index(stack(k))); stack(k) != v }) ()
            while (sp > k) { sp -= 1; onStack(stack(sp)) = false; ids(stack(sp)) = id }
          }
        }
      }
    }
    (ids, nodes.length + visited)
  }
}
