(** A minimal hand-rolled JSON layer (value type, printer, parser).

    The build deliberately carries no JSON dependency; the grammar
    needed by the schedule store, the serve protocol, the fuzz corpora
    and the benchmark timing files is tiny, so it is implemented here
    once and shared.  The parser
    accepts the subset the printer emits (strings, numbers, booleans,
    null, arrays, objects; [\u] escapes decoded in the Latin-1
    range). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse} and the accessors on malformed input; carries a
    one-line description with the byte position where applicable. *)

val escape : string -> string
(** JSON string-body escaping (quotes, backslashes, control
    characters). *)

val print : t -> string
(** Compact rendering (no insignificant whitespace).  Integral numbers
    print without a decimal point. *)

val parse : string -> t
(** @raise Bad on malformed input or trailing garbage. *)

val member : string -> t -> t
(** Field of an object. @raise Bad when absent or not an object. *)

val member_opt : string -> t -> t option
(** Field of an object; [None] when absent or not an object. *)

val to_str : t -> string
val to_num : t -> float

val to_int : t -> int
(** @raise Bad when the number has a fractional part. *)

val to_list : t -> t list
