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

val to_buffer : Buffer.t -> t -> unit
(** Appends the bytes of {!print} to the buffer, so a large document can
    be rendered one part at a time into one buffer. *)

val parse : string -> t
(** @raise Bad on malformed input or trailing garbage. *)

val fold_member :
  ?len:int ->
  string -> ((string * t) list -> 'a -> t -> 'a) -> 'a -> string ->
  'a * (string * t) list
(** [fold_member ?len name f init text] reads [text], which must hold an
    object, and folds [f] over the elements of its array member [name]
    as the parser reads each one: [f before acc element], where [before]
    are the members read before [name], in order.  No list of the
    elements, and no tree of the whole document, is built.  Returns the
    fold's result and the object's other members in order.  As with
    {!member}, only the first member called [name] is folded over; a
    later one is returned among the others.  [before] lets a caller
    check a header written ahead of the array before it decodes any
    element, as the schedule store does.  The integer literals from -1
    to 999 read as one shared [Num] value each across the document
    (each literal still reads as {!parse} reads it), so an element's
    tree that a minor collection catches promotes no number of its
    own for them.

    With [len], the text is [text]'s first [len] bytes alone, read as
    [String.sub text 0 len] would be: same results, same messages, same
    byte positions, and no byte past [len] is read.  No value returned
    or handed to [f] shares memory with [text] (every string is a
    copy), so [text] may be a view ([Bytes.unsafe_to_string]) of a
    buffer the caller writes again once the call has returned; the
    schedule store reads every table file this way, through one buffer.

    @raise Bad exactly where [to_list (member name (parse text))] would,
    with the same message.  [f] may already have seen elements when a
    later byte turns out malformed.
    @raise Invalid_argument when [len] is negative or longer than
    [text]. *)

val member : string -> t -> t
(** Field of an object. @raise Bad when absent or not an object. *)

val member_opt : string -> t -> t option
(** Field of an object; [None] when absent or not an object. *)

val to_str : t -> string
val to_num : t -> float

val to_int : t -> int
(** @raise Bad when the number has a fractional part or lies outside
    the [int] range ([1e300] is refused, not read as some wrapped
    integer). *)

val to_list : t -> t list
