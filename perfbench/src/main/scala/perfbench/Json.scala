package perfbench

/** Minimal JSON rendering for the result line and the span file. */
object Json {
  def value(v: Any): String = v match {
    case null                   => "null"
    case s: String              => quote(s)
    case b: Boolean             => b.toString
    case d: Double if d.isNaN || d.isInfinite => "null"
    case d: Double              => java.lang.Double.toString(d)
    case n: Int                 => n.toString
    case n: Long                => n.toString
    case m: Map[_, _]           => obj(m.toSeq.map { case (k, x) => k.toString -> x })
    case xs: Seq[_]             => xs.map(value).mkString("[", ", ", "]")
    case other                  => quote(other.toString)
  }

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${quote(k)}: ${value(v)}" }.mkString("{", ", ", "}")

  def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }
}
