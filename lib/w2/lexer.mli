(** Hand-written lexer for the W2-flavoured language.

    Comments run from ["--"] to end of line.  Numbers are decimal; a
    number containing ['.'] or an exponent is a float literal.
    Keywords are case-insensitive. *)

exception Error of string * Loc.t

type t
(** Lexer state over one in-memory source buffer. *)

val create : ?file:string -> string -> t
(** [create ~file source] starts lexing [source]; [file] names it in
    locations (default ["<string>"]). *)

val scan : t -> Token.t
(** The next token; returns {!Token.EOF} at the end (repeatedly).
    @raise Error on malformed input. *)

val loc : t -> Loc.t
(** The location of the first character of the token {!scan} returned
    last.  Built on each call, so a parser asks only for the locations
    it keeps. *)

val tokenize : ?file:string -> string -> (Token.t * Loc.t) list
(** The whole token stream, EOF included. *)

val count : string -> int
(** [List.length (tokenize source)], without building the list or any
    location: the cost model charges phase 1 per token.  Raises the same {!Error} as
    {!tokenize} without [~file]. *)
