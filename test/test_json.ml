(* Round-trip property for the hand-rolled JSON layer: parse (print v)
   = v over generated values, including escaping-heavy strings and
   nested arrays/objects.  The generator only emits numbers the printer
   represents exactly (integral floats below 1e15, binary fractions
   with few significant digits), matching the layer's actual use —
   store tables and fuzz corpora carry ints and short decimals. *)

open Metrics.Json

let gen_num =
  QCheck.Gen.oneof
    [
      QCheck.Gen.map float_of_int (QCheck.Gen.int_range (-1_000_000) 1_000_000);
      QCheck.Gen.map float_of_int
        (QCheck.Gen.int_range (-1_000_000_000_000) 1_000_000_000_000);
      (* binary fractions with at most 6 significant digits survive %g *)
      QCheck.Gen.map
        (fun (a, k) -> float_of_int a /. float_of_int (1 lsl k))
        (QCheck.Gen.pair (QCheck.Gen.int_range (-999) 999)
           (QCheck.Gen.int_range 0 3));
    ]

let gen_string =
  let nasty =
    QCheck.Gen.oneofl
      [ "\""; "\\"; "\n"; "\r"; "\t"; "\x00"; "\x1f"; "a\"b\\c"; "\xc3\xa9" ]
  in
  let any_char_string =
    QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.int_range 0 12)
  in
  QCheck.Gen.oneof
    [
      any_char_string;
      QCheck.Gen.map (String.concat "") (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4) nasty);
    ]

let rec gen_value depth =
  let leaf =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return Null;
        QCheck.Gen.map (fun b -> Bool b) QCheck.Gen.bool;
        QCheck.Gen.map (fun f -> Num f) gen_num;
        QCheck.Gen.map (fun s -> Str s) gen_string;
      ]
  in
  if depth = 0 then leaf
  else
    QCheck.Gen.frequency
      [
        (3, leaf);
        ( 1,
          QCheck.Gen.map
            (fun xs -> List xs)
            (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4)
               (gen_value (depth - 1))) );
        ( 1,
          QCheck.Gen.map
            (fun fields -> Obj fields)
            (QCheck.Gen.list_size (QCheck.Gen.int_range 0 4)
               (QCheck.Gen.pair gen_string (gen_value (depth - 1)))) );
      ]

let value_arb = QCheck.make ~print (gen_value 3)

let roundtrip =
  QCheck.Test.make ~name:"parse (print v) = v" ~count:1000 value_arb (fun v ->
      parse (print v) = v)

let roundtrip_twice =
  QCheck.Test.make ~name:"print is a fixpoint under reparsing" ~count:300
    value_arb (fun v -> print (parse (print v)) = print v)

(* The printer renders integral numbers below 1e15 through
   [string_of_int]; the bytes must stay those of ["%.0f"]. *)
let integral_as_printf =
  QCheck.Test.make ~name:"integral numbers print as %.0f" ~count:1000
    (QCheck.int_range (-999_999_999_999_999) 999_999_999_999_999)
    (fun n ->
      let f = float_of_int n in
      print (Num f) = Printf.sprintf "%.0f" f)

(* Texts for [fold_member "k"]: mostly objects, with members "k" (often
   a list, sometimes twice) among others, sometimes cut short, padded
   with whitespace or followed by garbage. *)
let gen_fold_text =
  let open QCheck.Gen in
  let k_value =
    frequency
      [
        (3, map (fun xs -> List xs) (list_size (int_range 0 4) (gen_value 2)));
        (1, gen_value 1);
      ]
  in
  let member =
    frequency
      [
        (2, map (fun v -> ("k", v)) k_value);
        (3, pair (oneofl [ "a"; "b"; ""; "kk" ]) (gen_value 2));
      ]
  in
  let doc =
    frequency
      [
        (6, map (fun fields -> Obj fields) (list_size (int_range 0 5) member));
        (1, gen_value 2);
      ]
  in
  doc >>= fun v ->
  let s = print v in
  let at = int_range 0 (String.length s) in
  frequency
    [
      (4, return s);
      (2, map (fun i -> String.sub s 0 i) at);
      ( 1,
        map2
          (fun i ws ->
            String.sub s 0 i ^ ws ^ String.sub s i (String.length s - i))
          at (oneofl [ " "; "\n\t"; " \r\n " ]) );
      (1, map (fun tail -> s ^ tail) (oneofl [ "x"; "]"; " {}" ]));
    ]

let outcome f = match f () with v -> Ok v | exception Bad msg -> Error msg

(* The fold hands every element of the first "k" member to [f] with the
   members before it, returns the other members, and fails where the
   tree path fails, with the same message. *)
let fold_member_agrees =
  QCheck.Test.make ~name:"fold_member agrees with parse, member and to_list"
    ~count:2000
    (QCheck.make ~print:(Printf.sprintf "%S") gen_fold_text)
    (fun text ->
      let by_tree =
        outcome (fun () ->
            let doc = parse text in
            let elements = to_list (member "k" doc) in
            let fields = match doc with Obj fields -> fields | _ -> [] in
            let rec before = function
              | ("k", _) :: _ | [] -> []
              | field :: rest -> field :: before rest
            in
            ( List.map (fun x -> (before fields, x)) elements,
              List.remove_assoc "k" fields ))
      in
      let by_fold =
        outcome (fun () ->
            let seen, others =
              fold_member "k" (fun before acc x -> (before, x) :: acc) [] text
            in
            (List.rev seen, others))
      in
      by_tree = by_fold)

(* With [len], the fold reads the text's first [len] bytes and nothing
   after them: over any text followed by any bytes, it returns what it
   returns over the text alone, and fails with the same message at the
   same byte.  The schedule store reads each table file into a buffer
   that may still hold a longer file's bytes after it. *)
let fold_member_len =
  QCheck.Test.make ~name:"fold_member ~len ignores the bytes past len"
    ~count:1000
    (QCheck.make
       ~print:(fun (text, suffix) -> Printf.sprintf "%S ^ %S" text suffix)
       QCheck.Gen.(
         pair gen_fold_text
           (oneof
              [ gen_fold_text; string_size ~gen:char (int_range 0 8) ])))
    (fun (text, suffix) ->
      let fold ?len s =
        outcome (fun () ->
            fold_member ?len "k" (fun before acc x -> (before, x) :: acc) [] s)
      in
      fold text = fold ~len:(String.length text) (text ^ suffix))

open Alcotest

(* Integral numbers outside the int range are refused, not wrapped:
   [int_of_float 1e300] reads 0. *)
let test_to_int_range () =
  let refused f =
    match to_int (Num f) with
    | n -> Alcotest.failf "to_int %g read %d" f n
    | exception Bad _ -> ()
  in
  List.iter refused [ 1e300; -1e300; 0x1p62; -0x1p63; 1.5 ];
  check int "lowest int" min_int (to_int (Num (Float.of_int min_int)));
  check int "highest float below 2^62" (int_of_float (0x1p62 -. 512.))
    (to_int (Num (0x1p62 -. 512.)));
  check int "plain" (-7) (to_int (Num (-7.)))

let test_examples () =
  (* pin the concrete grammar the store tables and corpora rely on *)
  check string "integral without decimal point" "42" (print (Num 42.));
  check string "negative fraction" "-0.125" (print (Num (-0.125)));
  check string "negative zero keeps its sign" "-0" (print (Num (-0.)));
  check string "largest fixed-point integral" "999999999999999"
    (print (Num 999999999999999.));
  check string "1e15 switches to %g" "1e+15" (print (Num 1e15));
  check string "escaping" "\"a\\\"b\\\\c\\n\\u0001\"" (print (Str "a\"b\\c\n\x01"));
  check string "nested arrays compact" "[[1,2],[],[[3]]]"
    (print (List [ List [ Num 1.; Num 2. ]; List []; List [ List [ Num 3. ] ] ]));
  check string "object" "{\"k\":null,\"l\":[true,false]}"
    (print (Obj [ ("k", Null); ("l", List [ Bool true; Bool false ]) ]))

let test_roundtrip_examples () =
  List.iter
    (fun v ->
      if parse (print v) <> v then
        Alcotest.failf "round trip broke %s" (print v))
    [
      Null;
      Num 0.;
      Num (-0.);
      Num 1e12;
      Str "";
      Str "\x00\x01\x1f\"\\ \xff";
      List [];
      Obj [];
      Obj [ ("", Null); ("", Bool true) ];
      List [ Obj [ ("a", List [ Num 0.5; Str "\n" ]) ] ];
    ]

(* [fold_member] reads the integers from -1 to 999 as one shared value
   each across a document; every literal still reads as [parse] reads
   it, down to the sign of zero. *)
let test_fold_member_numbers () =
  let literals =
    [ "-0"; "0"; "-1"; "7"; "007"; "999"; "1000"; "-12"; "1e2"; "2.5";
      "-1.0"; "0.0"; "-10"; "12" ]
  in
  let text = "{\"k\":[" ^ String.concat "," (literals @ literals) ^ "]}" in
  let folded, _ = fold_member "k" (fun _ acc x -> x :: acc) [] text in
  let folded = List.rev folded in
  let parsed = to_list (member "k" (parse text)) in
  check (list string) "every literal reads as parse reads it"
    (List.map print parsed) (List.map print folded);
  let n = List.length literals in
  List.iteri
    (fun i lit ->
      let a = List.nth folded i and b = List.nth folded (i + n) in
      let small = List.mem lit [ "0"; "-1"; "7"; "007"; "999"; "12" ] in
      check bool (lit ^ " is shared exactly when small") small (a == b))
    literals

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      roundtrip;
      roundtrip_twice;
      integral_as_printf;
      fold_member_agrees;
      fold_member_len;
    ]
  @ [
      test_case "printer grammar examples" `Quick test_examples;
      test_case "round-trip corner cases" `Quick test_roundtrip_examples;
      test_case "to_int refuses out-of-range integers" `Quick test_to_int_range;
      test_case "fold_member shares small integers" `Quick
        test_fold_member_numbers;
    ]
