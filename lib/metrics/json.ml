(* A minimal JSON value type, writer helpers and a recursive-descent
   parser.  The build deliberately has no JSON dependency; every file
   and wire format this repo reads or writes (schedule store tables,
   the serve protocol, fuzz corpora, benchmark timing files) speaks the
   subset implemented here. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Bad of string

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let add_escaped b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let escape s =
  let b = Buffer.create (String.length s + 8) in
  add_escaped b s;
  Buffer.contents b

(* Below 1e15 an integral float is an exact [int], and [string_of_int]
   prints what ["%.0f"] would, at a fraction of the cost; only the sign
   of negative zero needs care. *)
let number f =
  if Float.is_integer f && Float.abs f < 1e15 then
    if Float.sign_bit f && f = 0. then "-0" else string_of_int (int_of_float f)
  else Printf.sprintf "%g" f

(* One buffer for the whole document: a store table runs to megabytes,
   and nested sprintf/concat would copy every byte once per level of
   nesting. *)
let to_buffer b v =
  let str s =
    Buffer.add_char b '"';
    add_escaped b s;
    Buffer.add_char b '"'
  in
  let rec add = function
    | Null -> Buffer.add_string b "null"
    | Bool x -> Buffer.add_string b (if x then "true" else "false")
    | Num f -> Buffer.add_string b (number f)
    | Str s -> str s
    | List xs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char b ',';
            add x)
          xs;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char b ',';
            str k;
            Buffer.add_char b ':';
            add x)
          fields;
        Buffer.add_char b '}'
  in
  add v

let print v =
  let b = Buffer.create 4096 in
  to_buffer b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent)                                          *)
(* ------------------------------------------------------------------ *)

(* [parse] and [fold_member] read through the same functions, so they
   accept one grammar and fail with the same message at the same byte. *)
type cursor = {
  s : string;
  n : int;  (* the text is [s]'s first [n] bytes *)
  mutable pos : int;
  small : t array;
      (* empty, or the [Num] of each integer from -1 to 999 read so far
         at index [i + 1] ([Null] until read) *)
}

let cursor ?(small = [||]) ?len s =
  { s; n = Option.value len ~default:(String.length s); pos = 0; small }
let fail c msg = raise (Bad (Printf.sprintf "%s at byte %d" msg c.pos))
let peek c = if c.pos < c.n then Some c.s.[c.pos] else None
let advance c = c.pos <- c.pos + 1

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance c;
      skip_ws c
  | _ -> ()

let expect c ch =
  match peek c with
  | Some ch' when ch' = ch -> advance c
  | _ -> fail c (Printf.sprintf "expected '%c'" ch)

let literal c word value =
  let l = String.length word in
  if c.pos + l <= c.n && String.sub c.s c.pos l = word then begin
    c.pos <- c.pos + l;
    value
  end
  else fail c ("expected " ^ word)

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
        advance c;
        let esc ch =
          Buffer.add_char b ch;
          advance c;
          go ()
        in
        match peek c with
        | Some '"' -> esc '"'
        | Some '\\' -> esc '\\'
        | Some '/' -> esc '/'
        | Some 'n' -> esc '\n'
        | Some 'r' -> esc '\r'
        | Some 't' -> esc '\t'
        | Some 'b' -> esc '\b'
        | Some 'f' -> esc '\012'
        | Some 'u' ->
            advance c;
            if c.pos + 4 > c.n then fail c "truncated \\u escape";
            let hex = String.sub c.s c.pos 4 in
            let code =
              try int_of_string ("0x" ^ hex) with _ -> fail c "bad \\u escape"
            in
            (* The writer only \u-escapes control characters; decode
               the Latin-1 range and replace anything wider. *)
            if code < 0x100 then Buffer.add_char b (Char.chr code)
            else Buffer.add_char b '?';
            c.pos <- c.pos + 4;
            go ()
        | _ -> fail c "bad escape")
    | Some ch ->
        Buffer.add_char b ch;
        advance c;
        go ()
  in
  go ();
  Buffer.contents b

(* The value of a literal of at most three digits, or of "-1": the
   integers a cursor with a [small] table reads as one shared value
   each.  -2 for any other literal. *)
let small_int c ~start ~len =
  if len = 2 && c.s.[start] = '-' && c.s.[start + 1] = '1' then -1
  else if len > 3 then -2
  else begin
    let v = ref 0 in
    for i = start to start + len - 1 do
      match c.s.[i] with
      | '0' .. '9' as d when !v >= 0 ->
          v := (!v * 10) + Char.code d - Char.code '0'
      | _ -> v := -2
    done;
    !v
  end

let float_literal c ~start ~len =
  match float_of_string_opt (String.sub c.s start len) with
  | Some f -> Num f
  | None -> fail c "bad number"

let parse_number c =
  let start = c.pos in
  let number_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while match peek c with Some ch -> number_char ch | None -> false do
    advance c
  done;
  let len = c.pos - start in
  if len = 0 then fail c "expected number";
  let v = if Array.length c.small = 0 then -2 else small_int c ~start ~len in
  if v = -2 then float_literal c ~start ~len
  else
    match c.small.(v + 1) with
    | Null ->
        let x = float_literal c ~start ~len in
        c.small.(v + 1) <- x;
        x
    | x -> x

(* The items of the array or object whose opening bracket is next:
   [item] reads each one, and [close] is the closing bracket. *)
let items c ~close item =
  advance c;
  skip_ws c;
  if peek c = Some close then advance c
  else
    let rec go () =
      item ();
      skip_ws c;
      match peek c with
      | Some ',' ->
          advance c;
          go ()
      | Some ch when ch = close -> advance c
      | _ -> fail c (Printf.sprintf "expected ',' or '%c'" close)
    in
    go ()

(* An object member's key and its ':'. *)
let key c =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  k

let rec parse_value c =
  skip_ws c;
  match peek c with
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
      let fields = ref [] in
      items c ~close:'}' (fun () ->
          let k = key c in
          fields := (k, parse_value c) :: !fields);
      Obj (List.rev !fields)
  | Some '[' ->
      let xs = ref [] in
      items c ~close:']' (fun () -> xs := parse_value c :: !xs);
      List (List.rev !xs)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> parse_number c
  | None -> fail c "unexpected end of input"

let finish c =
  skip_ws c;
  if c.pos <> c.n then fail c "trailing garbage"

let parse s =
  let c = cursor s in
  let v = parse_value c in
  finish c;
  v

(* Elements reach [f] as the parser reads them, so each element's tree
   can die young instead of the whole array's surviving to the end.
   The integers from -1 to 999, which a store table is mostly made of,
   read as one shared value each across the document, so an element's
   tree holds no number of its own for them.  Errors come out as
   [parse], [member] and [to_list] would raise them: the whole text is
   read before a missing or non-list member fails.  With [len], the text
   is [s]'s first [len] bytes: the cursor reads no byte at or past its
   [n], and every string the parser returns is a fresh copy, so a
   caller may pass a view of a buffer it reuses. *)
let fold_member ?len name f init s =
  (match len with
  | Some l when l < 0 || l > String.length s ->
      invalid_arg "Json.fold_member: len outside the string"
  | _ -> ());
  let c = cursor ~small:(Array.make 1001 Null) ?len s in
  skip_ws c;
  if peek c <> Some '{' then begin
    ignore (parse_value c);
    finish c;
    raise (Bad ("expected an object around field " ^ name))
  end;
  let acc = ref init and others = ref [] in
  let found = ref false and listed = ref false in
  items c ~close:'}' (fun () ->
      let k = key c in
      skip_ws c;
      if (not !found) && String.equal k name then begin
        found := true;
        if peek c = Some '[' then begin
          listed := true;
          let before = List.rev !others in
          items c ~close:']' (fun () -> acc := f before !acc (parse_value c))
        end
        else ignore (parse_value c)
      end
      else others := (k, parse_value c) :: !others);
  finish c;
  if not !found then raise (Bad ("missing field " ^ name));
  if not !listed then raise (Bad "expected a list");
  (!acc, List.rev !others)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> (
      match List.assoc_opt key fields with
      | Some v -> v
      | None -> raise (Bad ("missing field " ^ key)))
  | _ -> raise (Bad ("expected an object around field " ^ key))

let member_opt key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_str = function Str s -> s | _ -> raise (Bad "expected a string")
let to_num = function Num f -> f | _ -> raise (Bad "expected a number")

(* [int_of_float] is unspecified outside the int range: 1e300 reads 0. *)
let to_int = function
  | Num f
    when Float.is_integer f
         && f >= Float.of_int min_int
         && f < -.Float.of_int min_int ->
      int_of_float f
  | Num f when Float.is_integer f -> raise (Bad "integer out of range")
  | _ -> raise (Bad "expected an integer")

let to_list = function List xs -> xs | _ -> raise (Bad "expected a list")
