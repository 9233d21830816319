module B = Sqp_zorder.Bitstring

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let bs = B.of_string

let test_empty () =
  check_int "length" 0 (B.length B.empty);
  check "is_empty" true (B.is_empty B.empty);
  check_str "to_string" "" (B.to_string B.empty)

let test_of_string_roundtrip () =
  List.iter
    (fun s -> check_str s s (B.to_string (bs s)))
    [ "0"; "1"; "01"; "10"; "0110"; "11111111"; "101010101"; "0000000000000000" ]

let test_of_string_invalid () =
  Alcotest.check_raises "bad char" (Invalid_argument "Bitstring.of_string: bad char x")
    (fun () -> ignore (bs "01x0"))

let test_get () =
  let t = bs "0110" in
  check "bit 0" false (B.get t 0);
  check "bit 1" true (B.get t 1);
  check "bit 2" true (B.get t 2);
  check "bit 3" false (B.get t 3)

let test_get_out_of_bounds () =
  let t = bs "01" in
  List.iter
    (fun i ->
      match B.get t i with
      | _ -> Alcotest.failf "expected failure at index %d" i
      | exception Invalid_argument _ -> ())
    [ -1; 2; 100 ]

let test_of_int () =
  check_str "27 in 6 bits" "011011" (B.to_string (B.of_int 27 ~width:6));
  check_str "0 in 4 bits" "0000" (B.to_string (B.of_int 0 ~width:4));
  check_str "0 in 0 bits" "" (B.to_string (B.of_int 0 ~width:0));
  check_int "roundtrip" 27 (B.to_int (B.of_int 27 ~width:6))

let test_of_int_invalid () =
  List.iter
    (fun f ->
      match f () with
      | _ -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())
    [
      (fun () -> B.of_int (-1) ~width:4);
      (fun () -> B.of_int 16 ~width:4);
      (fun () -> B.of_int 1 ~width:63);
      (fun () -> B.of_int 0 ~width:(-1));
    ]

let test_append_bit () =
  check_str "append 1" "011" (B.to_string (B.append_bit (bs "01") true));
  check_str "append 0" "0" (B.to_string (B.append_bit B.empty false))

let test_take () =
  let t = bs "0110110" in
  check_str "take 3" "011" (B.to_string (B.take t 3));
  check_str "take 0" "" (B.to_string (B.take t 0));
  check_str "take all" "0110110" (B.to_string (B.take t 7))

let test_take_invariant () =
  (* take must drop the trailing bits so equality stays structural. *)
  let a = B.take (bs "0111") 2 and b = B.take (bs "0100") 2 in
  check "equal after take" true (B.equal a b);
  check "structurally equal" true (a = b)

let test_pad_to () =
  check_str "pad 0s" "01000" (B.to_string (B.pad_to (bs "01") 5 false));
  check_str "pad 1s" "01111" (B.to_string (B.pad_to (bs "01") 5 true));
  check_str "pad same" "01" (B.to_string (B.pad_to (bs "01") 2 true))

let test_compare_lexicographic () =
  let lt a b = B.compare (bs a) (bs b) < 0 in
  check "0 < 1" true (lt "0" "1");
  check "00 < 01" true (lt "00" "01");
  check "prefix < extension" true (lt "01" "010");
  check "prefix < extension 1" true (lt "01" "011");
  check "equal" true (B.compare (bs "0101") (bs "0101") = 0);
  check "0010 < 01" true (lt "0010" "01");
  check "empty < 0" true (lt "" "0")

let test_compare_long () =
  (* Multi-byte comparison paths. *)
  let a = bs "00000000000000001" and b = bs "00000000000000010" in
  check "17-bit compare" true (B.compare a b < 0);
  check "reverse" true (B.compare b a > 0)

let test_is_prefix () =
  check "empty prefix" true (B.is_prefix B.empty (bs "0110"));
  check "proper" true (B.is_prefix (bs "011") (bs "0110"));
  check "equal" true (B.is_prefix (bs "0110") (bs "0110"));
  check "longer" false (B.is_prefix (bs "01101") (bs "0110"));
  check "mismatch" false (B.is_prefix (bs "010") (bs "0110"))

let test_common_prefix_len () =
  check_int "disjoint at 0" 0 (B.common_prefix_len (bs "0") (bs "1"));
  check_int "partial" 2 (B.common_prefix_len (bs "0110") (bs "0101"));
  check_int "full" 4 (B.common_prefix_len (bs "0110") (bs "0110"));
  check_int "prefix" 2 (B.common_prefix_len (bs "01") (bs "0110"))

let test_shortest_separator () =
  let sep lo hi = B.to_string (B.shortest_separator ~lo:(bs lo) ~hi:(bs hi)) in
  check_str "simple" "01" (sep "0010" "0100");
  check_str "prefix case" "011" (sep "01" "0110");
  check_str "adjacent" "1" (sep "0111" "1000");
  Alcotest.check_raises "lo >= hi"
    (Invalid_argument "Bitstring.shortest_separator: lo >= hi") (fun () ->
      ignore (B.shortest_separator ~lo:(bs "01") ~hi:(bs "01")))

(* A bitstring holds at most [Space.max_total_bits] = 61 bits: every
   constructor accepts 61 and refuses 62. *)
let test_cap () =
  check_int "the cap" 61 Sqp_zorder.Space.max_total_bits;
  let ones n = String.make n '1' in
  let accepts what n f = check_int what n (B.length (f ())) in
  let refuses what f =
    match f () with
    | _ -> Alcotest.failf "%s: a 62-bit value was accepted" what
    | exception Invalid_argument _ -> ()
  in
  accepts "init 61" 61 (fun () -> B.init 61 (fun i -> i mod 2 = 0));
  refuses "init 62" (fun () -> B.init 62 (fun _ -> true));
  accepts "of_string 61" 61 (fun () -> bs (ones 61));
  refuses "of_string 62" (fun () -> bs (ones 62));
  accepts "of_int 61" 61 (fun () -> B.of_int ((1 lsl 61) - 1) ~width:61);
  refuses "of_int 62" (fun () -> B.of_int 0 ~width:62);
  accepts "append_bit to 61" 61 (fun () -> B.append_bit (bs (ones 60)) false);
  refuses "append_bit to 62" (fun () -> B.append_bit (bs (ones 61)) true);
  accepts "pad_to 61" 61 (fun () -> B.pad_to (bs "01") 61 true);
  refuses "pad_to 62" (fun () -> B.pad_to (bs "01") 62 false);
  check_str "61 ones" (ones 61) (B.to_string (B.of_int ((1 lsl 61) - 1) ~width:61));
  check_int "to_int of 61 ones" ((1 lsl 61) - 1) (B.to_int (bs (ones 61)))

(* Property tests: every operation against the value's 0/1 text, which
   serves as an independent model. *)

(* Lengths 0-61, with the edges 0, 1, 60 and 61 drawn often. *)
let gen_len = QCheck2.Gen.(frequency [ (1, oneofl [ 0; 1; 60; 61 ]); (2, int_range 0 61) ])

let gen_text_of_len n = QCheck2.Gen.(string_size ~gen:(oneofl [ '0'; '1' ]) (return n))

let gen_text = QCheck2.Gen.(gen_len >>= gen_text_of_len)

(* Two texts, the second often a prefix of the first extended by random
   bits, so that prefixes, equal values and long shared prefixes occur. *)
let gen_text_pair =
  QCheck2.Gen.(
    let related =
      let* a = gen_text in
      let* keep = int_range 0 (String.length a) in
      let room = 61 - keep in
      let* ext = frequency [ (1, oneofl [ 0; room ]); (2, int_range 0 room) ] in
      let+ suffix = gen_text_of_len ext in
      (a, String.sub a 0 keep ^ suffix)
    in
    frequency [ (3, related); (1, pair gen_text gen_text) ])

let print_pair = QCheck2.Print.(pair string string)

let sign c = Int.compare c 0

let model_common_prefix a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i = n || a.[i] <> b.[i] then i else go (i + 1) in
  go 0

let model_int s = String.fold_left (fun v c -> (v lsl 1) lor (if c = '1' then 1 else 0)) 0 s

let prop_roundtrip =
  QCheck2.Test.make ~name:"of_string/to_string roundtrip" ~count:500 ~print:Fun.id gen_text
    (fun s -> B.to_string (bs s) = s && B.length (bs s) = String.length s)

let prop_compare_model =
  QCheck2.Test.make ~name:"compare has the sign of String.compare" ~count:1000
    ~print:print_pair gen_text_pair (fun (a, b) ->
      sign (B.compare (bs a) (bs b)) = sign (String.compare a b)
      && B.equal (bs a) (bs b) = (a = b))

let prop_compare_antisym =
  QCheck2.Test.make ~name:"compare antisymmetric" ~count:500 ~print:print_pair gen_text_pair
    (fun (a, b) -> B.compare (bs a) (bs b) = -B.compare (bs b) (bs a))

let prop_compare_transitive =
  QCheck2.Test.make ~name:"compare transitive" ~count:500
    QCheck2.Gen.(triple gen_text gen_text gen_text)
    (fun (a, b, c) ->
      let l = List.sort B.compare [ bs a; bs b; bs c ] in
      match l with
      | [ x; y; z ] -> B.compare x y <= 0 && B.compare y z <= 0 && B.compare x z <= 0
      | _ -> false)

let prop_structure_model =
  QCheck2.Test.make ~name:"is_prefix, common_prefix_len, take, get agree with the text"
    ~count:1000 ~print:print_pair gen_text_pair (fun (a, b) ->
      let ta = bs a and tb = bs b in
      B.is_prefix ta tb = String.starts_with ~prefix:a b
      && B.is_prefix tb ta = String.starts_with ~prefix:b a
      && B.common_prefix_len ta tb = model_common_prefix a b
      && List.for_all
           (fun n -> B.to_string (B.take ta n) = String.sub a 0 n)
           (List.init (String.length a + 1) Fun.id)
      && List.for_all
           (fun i -> B.get ta i = (a.[i] = '1'))
           (List.init (String.length a) Fun.id))

let prop_extend_model =
  QCheck2.Test.make ~name:"pad_to and append_bit agree with the text" ~count:500
    ~print:Fun.id gen_text (fun a ->
      let t = bs a and len = String.length a in
      List.for_all
        (fun n ->
          B.to_string (B.pad_to t n false) = a ^ String.make (n - len) '0'
          && B.to_string (B.pad_to t n true) = a ^ String.make (n - len) '1')
        [ len; min 61 (len + 1); (len + 61) / 2; 61 ]
      && (len = 61
         || B.to_string (B.append_bit t false) = a ^ "0"
            && B.to_string (B.append_bit t true) = a ^ "1"))

let prop_int_model =
  QCheck2.Test.make ~name:"of_int/to_int read the text as a binary number" ~count:500
    ~print:Fun.id gen_text (fun a ->
      let v = model_int a and width = String.length a in
      B.to_int (bs a) = v && B.to_string (B.of_int v ~width) = a)

let prop_prefix_compare =
  QCheck2.Test.make ~name:"prefix sorts before extension" ~count:500
    QCheck2.Gen.(
      let* a = gen_text in
      let+ ext = int_range 0 (61 - String.length a) >>= gen_text_of_len in
      (a, ext))
    (fun (a, ext) -> ext = "" || B.compare (bs a) (bs (a ^ ext)) < 0)

let prop_separator =
  QCheck2.Test.make ~name:"separator: lo < s <= hi" ~count:500 ~print:print_pair
    gen_text_pair (fun (a, b) ->
      let c = String.compare a b in
      if c = 0 then true
      else
        let lo, hi = if c < 0 then (a, b) else (b, a) in
        let s = B.to_string (B.shortest_separator ~lo:(bs lo) ~hi:(bs hi)) in
        (* s lies in (lo, hi], and no shorter prefix of hi does *)
        String.compare lo s < 0
        && String.compare s hi <= 0
        && List.for_all
             (fun n -> String.compare (String.sub hi 0 n) lo <= 0)
             (List.init (String.length s) Fun.id))

let () =
  Alcotest.run "bitstring"
    [
      ( "unit",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "of_string roundtrip" `Quick test_of_string_roundtrip;
          Alcotest.test_case "of_string invalid" `Quick test_of_string_invalid;
          Alcotest.test_case "get" `Quick test_get;
          Alcotest.test_case "get out of bounds" `Quick test_get_out_of_bounds;
          Alcotest.test_case "of_int" `Quick test_of_int;
          Alcotest.test_case "of_int invalid" `Quick test_of_int_invalid;
          Alcotest.test_case "append_bit" `Quick test_append_bit;
          Alcotest.test_case "take/drop" `Quick test_take;
          Alcotest.test_case "take zeroes trailing bits" `Quick test_take_invariant;
          Alcotest.test_case "pad_to" `Quick test_pad_to;
          Alcotest.test_case "compare lexicographic" `Quick test_compare_lexicographic;
          Alcotest.test_case "compare long" `Quick test_compare_long;
          Alcotest.test_case "is_prefix" `Quick test_is_prefix;
          Alcotest.test_case "common_prefix_len" `Quick test_common_prefix_len;
          Alcotest.test_case "shortest_separator" `Quick test_shortest_separator;
          Alcotest.test_case "61-bit cap" `Quick test_cap;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_roundtrip;
            prop_compare_model;
            prop_compare_antisym;
            prop_compare_transitive;
            prop_structure_model;
            prop_extend_model;
            prop_int_model;
            prop_prefix_compare;
            prop_separator;
          ] );
    ]
