package repro.gvdl

import org.apache.spark.sql.Column
import org.apache.spark.sql.functions._
import Ast._

/** Compiles GVDL predicate ASTs to Catalyst [[Column]] expressions over a
  * graph's resolved edge frame (see [[repro.graph.PropertyGraph.resolved]]),
  * where endpoint properties appear as `src_&lt;p&gt;` / `dst_&lt;p&gt;`
  * columns. This is the Spark analog of the paper's TD join+filter dataflow
  * for view creation: the join is the `resolved` frame, the filter is the
  * compiled Column.
  */
object Compiler {

  /** Compile a predicate for the resolved edge frame, whose columns are
    * `columns`.
    */
  def edgePredicate(e: Expr, columns: Seq[String]): Column = compile(e, columns, {
    case (SrcT, p)  => s"src_$p"
    case (DstT, p)  => s"dst_$p"
    case (EdgeT, p) => p
  })

  /** Compile a node-level predicate (aggregate views) for a node frame
    * whose columns are `columns`: refs must be bare node properties.
    */
  def nodePredicate(e: Expr, columns: Seq[String]): Column = compile(e, columns, {
    case (EdgeT, p) => p
    case (t, p) =>
      throw new IllegalArgumentException(
        s"node predicate cannot reference $t.$p — use bare property names")
  })

  /** Compile `e`, resolving each property ref to a column name with `ref`.
    * A ref to a column the frame lacks (compared case-insensitively, as
    * Spark resolves columns by default) is an error that names it.
    */
  private def compile(e: Expr, columns: Seq[String],
                      ref: (Target, String) => String): Column = {
    def go(e: Expr): Column = e match {
      case PropRef(t, p) =>
        val c = ref(t, p)
        if (!columns.exists(_.equalsIgnoreCase(c))) {
          val name = t match { case SrcT => s"src.$p"; case DstT => s"dst.$p"; case EdgeT => p }
          throw new IllegalArgumentException(
            s"unknown property $name (no column $c; columns: ${columns.mkString(", ")})")
        }
        col(c)
      case NumLit(v)     => if (v == v.toLong) lit(v.toLong) else lit(v)
      case StrLit(v)     => lit(v)
      case BoolLit(v)    => lit(v)
      case Cmp(op, l, r) => cmp(op, go(l), go(r))
      case And(l, r)     => go(l) && go(r)
      case Or(l, r)      => go(l) || go(r)
      case Not(x)        => !go(x)
    }
    go(e)
  }

  private def cmp(op: String, l: Column, r: Column): Column = op match {
    case "="  => l === r
    case "!=" => l =!= r
    case "<"  => l < r
    case "<=" => l <= r
    case ">"  => l > r
    case ">=" => l >= r
    case o    => throw new IllegalArgumentException(s"unknown comparison '$o'")
  }

  /** Compile an aggregate spec to a Spark aggregation Column. */
  def aggregate(a: AggSpec): Column = {
    val c = a.fn match {
      case "count" => a.arg.map(x => count(col(x))).getOrElse(count(lit(1)))
      case "sum"   => sum(col(a.arg.get))
      case "min"   => min(col(a.arg.get))
      case "max"   => max(col(a.arg.get))
      case "avg"   => avg(col(a.arg.get))
    }
    c.as(a.alias)
  }
}
