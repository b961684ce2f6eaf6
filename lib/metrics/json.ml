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
let print v =
  let b = Buffer.create 4096 in
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
  add v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Parser (recursive descent)                                          *)
(* ------------------------------------------------------------------ *)

let parse (s : string) : t =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail ("expected " ^ word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; advance (); go ()
          | Some '\\' -> Buffer.add_char b '\\'; advance (); go ()
          | Some '/' -> Buffer.add_char b '/'; advance (); go ()
          | Some 'n' -> Buffer.add_char b '\n'; advance (); go ()
          | Some 'r' -> Buffer.add_char b '\r'; advance (); go ()
          | Some 't' -> Buffer.add_char b '\t'; advance (); go ()
          | Some 'b' -> Buffer.add_char b '\b'; advance (); go ()
          | Some 'f' -> Buffer.add_char b '\012'; advance (); go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "truncated \\u escape";
              let hex = String.sub s !pos 4 in
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape"
              in
              (* The writer only \u-escapes control characters; decode
                 the Latin-1 range and replace anything wider. *)
              if code < 0x100 then Buffer.add_char b (Char.chr code)
              else Buffer.add_char b '?';
              pos := !pos + 4;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let number_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> number_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> Str (parse_string ())
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec members acc =
            skip_ws ();
            let key = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((key, v) :: acc)
            | Some '}' ->
                advance ();
                List.rev ((key, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (members [])
        end
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec elements acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (elements [])
        end
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

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

let to_int = function
  | Num f when Float.is_integer f -> int_of_float f
  | _ -> raise (Bad "expected an integer")

let to_list = function List xs -> xs | _ -> raise (Bad "expected a list")
