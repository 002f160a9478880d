package repro.gvdl

/** Hand-rolled tokenizer for GVDL.
  *
  * No parser library ships with the offline jar set, so lexing and parsing
  * are implemented directly. Identifiers may contain `-` (view names like
  * `CA-Long-Calls` and aliases like `total-duration` use it); `≤`/`≥` are
  * accepted as aliases for `<=`/`>=` to match Listing 3 verbatim.
  */
object Lexer {

  sealed trait Token
  final case class Ident(s: String)  extends Token // lower-cased for keywords
  final case class Num(v: Double)    extends Token
  final case class Str(v: String)    extends Token
  final case class Sym(s: String)    extends Token
  case object EOF                    extends Token

  /** Tokenize or throw IllegalArgumentException with position info. */
  def tokenize(input: String): Vector[Token] = {
    val out = Vector.newBuilder[Token]
    var i = 0
    val n = input.length
    def nextIsDigit: Boolean = i + 1 < n && input.charAt(i + 1).isDigit
    while (i < n) {
      val c = input.charAt(i)
      if (c.isWhitespace) i += 1
      else if (c == '\'' || c == '"') {
        val quote = c
        val sb = new StringBuilder
        i += 1
        while (i < n && input.charAt(i) != quote) { sb += input.charAt(i); i += 1 }
        require(i < n, s"unterminated string literal at offset $i")
        i += 1
        out += Str(sb.toString)
      } else if (c.isDigit || (c == '.' && nextIsDigit) ||
                 (c == '-' && nextIsDigit && !lastIsOperand(out.result()))) {
        val sb = new StringBuilder
        if (c == '-') { sb += c; i += 1 }
        while (i < n && (input.charAt(i).isDigit || input.charAt(i) == '.')) {
          sb += input.charAt(i); i += 1
        }
        out += Num(sb.toString.toDouble)
      } else if (c.isLetter || c == '_') {
        val sb = new StringBuilder
        while (i < n && (input.charAt(i).isLetterOrDigit ||
               input.charAt(i) == '_' || input.charAt(i) == '-')) {
          sb += input.charAt(i); i += 1
        }
        out += Ident(sb.toString)
      } else {
        val two = if (i + 1 < n) input.substring(i, i + 2) else ""
        two match {
          case "<=" | ">=" | "!=" | "<>" => out += Sym(if (two == "<>") "!=" else two); i += 2
          case _ =>
            c match {
              case '≤' => out += Sym("<="); i += 1
              case '≥' => out += Sym(">="); i += 1
              case '(' | ')' | '[' | ']' | ',' | ':' | '.' | '=' | '<' | '>' | '*' =>
                out += Sym(c.toString); i += 1
              case other =>
                throw new IllegalArgumentException(s"unexpected character '$other' at offset $i")
            }
        }
      }
    }
    out += EOF
    out.result()
  }

  /** A leading '-' is a negative-number sign only if the previous token
    * cannot end an operand (so `duration -1` stays a comparison operand
    * while `a - 1` is not valid GVDL anyway).
    */
  private def lastIsOperand(ts: Vector[Token]): Boolean = ts.lastOption match {
    case Some(Ident(_)) | Some(Num(_)) | Some(Str(_)) | Some(Sym(")")) => true
    case _ => false
  }
}
