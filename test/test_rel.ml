(* Tests for xdb_rel: values, B-tree, tables, executor, optimizer,
   publishing. *)

module V = Xdb_rel.Value
module BT = Xdb_rel.Btree
module T = Xdb_rel.Table
module DB = Xdb_rel.Database
module A = Xdb_rel.Algebra
module E = Xdb_rel.Exec
module O = Xdb_rel.Optimizer
module P = Xdb_rel.Publish
module X = Xdb_xml.Types

let check = Alcotest.check
let cs = Alcotest.string
let cb = Alcotest.bool
let ci = Alcotest.int

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ------------------------------------------------------------------ *)
(* values                                                              *)
(* ------------------------------------------------------------------ *)

let test_value_casts () =
  check ci "str to int" 42 (V.to_int (V.Str " 42 "));
  check (Alcotest.float 1e-9) "int to float" 3.0 (V.to_float (V.Int 3));
  check cs "float integral prints bare" "4" (V.to_string (V.Float 4.0));
  check cs "float fraction" "2.5" (V.to_string (V.Float 2.5));
  check cs "null prints empty" "" (V.to_string V.Null);
  match V.to_int (V.Str "nope") with
  | exception V.Type_error _ -> ()
  | _ -> Alcotest.fail "bad cast must raise"

let test_value_compare () =
  check cb "null incomparable" true (V.compare_sql V.Null (V.Int 1) = None);
  check cb "mixed numeric" true (V.compare_sql (V.Int 2) (V.Float 2.0) = Some 0);
  check cb "string coerced" true (V.compare_sql (V.Str "10") (V.Int 9) = Some 1);
  check cb "key order total" true (V.compare_key V.Null (V.Int 0) < 0)

(* ------------------------------------------------------------------ *)
(* B-tree                                                              *)
(* ------------------------------------------------------------------ *)

let test_btree_basic () =
  let t = BT.create () in
  for i = 0 to 999 do
    BT.insert t (V.Int ((i * 37) mod 1000)) i
  done;
  check cb "invariants" true (BT.check_invariants t);
  check ci "size" 1000 (BT.size t);
  check cb "height grew" true (BT.height t > 1);
  (* each key inserted exactly once with rid = i where key = (i*37) mod 1000;
     37 is coprime with 1000 so every key in 0..999 appears once *)
  check ci "find point" 1 (List.length (BT.find t (V.Int 500)));
  check ci "find missing" 0 (List.length (BT.find t (V.Int 12345)))

let test_btree_duplicates () =
  let t = BT.create () in
  List.iter (fun i -> BT.insert t (V.Int 7) i) [ 1; 2; 3 ];
  BT.insert t (V.Int 9) 4;
  check Alcotest.(list int) "dup rows in insert order" [ 1; 2; 3 ] (BT.find t (V.Int 7))

let test_btree_range () =
  let t = BT.create () in
  for i = 1 to 100 do
    BT.insert t (V.Int i) i
  done;
  let r = BT.range t ~lo:(BT.Inclusive (V.Int 10)) ~hi:(BT.Exclusive (V.Int 13)) in
  check Alcotest.(list int) "range [10,13)" [ 10; 11; 12 ] (List.map snd r);
  let r = BT.range t ~lo:(BT.Exclusive (V.Int 98)) ~hi:BT.Unbounded in
  check Alcotest.(list int) "open top" [ 99; 100 ] (List.map snd r);
  check ci "full scan" 100 (List.length (BT.to_list t))

let test_btree_strings () =
  let t = BT.create () in
  List.iteri (fun i s -> BT.insert t (V.Str s) i) [ "pear"; "apple"; "fig" ];
  let keys = List.map fst (BT.to_list t) in
  check Alcotest.(list string) "sorted keys" [ "apple"; "fig"; "pear" ]
    (List.map V.to_string keys)

(* qcheck: B-tree vs sorted association list model *)
let prop_btree_model =
  QCheck.Test.make ~name:"btree matches assoc model" ~count:100
    QCheck.(list (pair (int_bound 50) (int_bound 1000)))
    (fun pairs ->
      let t = BT.create () in
      List.iteri (fun rid (k, _) -> BT.insert t (V.Int k) rid) pairs;
      BT.check_invariants t
      && List.for_all
           (fun (k, _) ->
             let expected =
               List.filteri (fun _ (k', _) -> k' = k) (List.mapi (fun i p -> (fst p, i)) pairs)
               |> List.map snd
             in
             BT.find t (V.Int k) = expected)
           pairs)

let test_btree_remove () =
  let t = BT.create () in
  for i = 0 to 999 do
    BT.insert t (V.Int (i mod 100)) i
  done;
  (* each key 0..99 has rids [k; k+100; ...; k+900] *)
  check cb "present entry removed" true (BT.remove t (V.Int 7) 107);
  check cb "absent rid is a no-op" false (BT.remove t (V.Int 7) 107);
  check cb "absent key is a no-op" false (BT.remove t (V.Int 12345) 0);
  check ci "size tracks removals" 999 (BT.size t);
  check Alcotest.(list int) "other rids of the key survive"
    [ 7; 207; 307; 407; 507; 607; 707; 807; 907 ]
    (BT.find t (V.Int 7));
  check cb "invariants hold" true (BT.check_invariants t);
  (* empty a key out entirely: it must vanish from range scans *)
  List.iter (fun rid -> ignore (BT.remove t (V.Int 8) rid)) [ 8; 108; 208; 308; 408; 508; 608; 708; 808; 908 ];
  check ci "emptied key gone" 0 (List.length (BT.find t (V.Int 8)));
  let rids = BT.range_rids t ~lo:(BT.Inclusive (V.Int 7)) ~hi:(BT.Inclusive (V.Int 9)) in
  check cb "range_rids skips the emptied key" true
    (Array.for_all (fun rid -> rid mod 100 = 7 || rid mod 100 = 9) rids);
  check ci "range_rids count" 19 (Array.length rids);
  check cb "invariants after key drop" true (BT.check_invariants t)

(* qcheck: interleaved insert/remove vs a multiset model; range_rids must
   always agree with a filter over the model *)
let prop_btree_remove_model =
  QCheck.Test.make ~name:"btree remove matches model" ~count:100
    QCheck.(list (pair bool (pair (int_bound 20) (int_bound 30))))
    (fun ops ->
      let t = BT.create () in
      let model = ref [] in
      List.iter
        (fun (is_remove, (k, rid)) ->
          if is_remove then (
            let present = List.mem (k, rid) !model in
            let removed = BT.remove t (V.Int k) rid in
            if removed <> present then QCheck.Test.fail_report "remove result vs model";
            if present then
              model :=
                (let seen = ref false in
                 List.filter
                   (fun e ->
                     if e = (k, rid) && not !seen then (
                       seen := true;
                       false)
                     else true)
                   !model))
          else (
            BT.insert t (V.Int k) rid;
            model := !model @ [ (k, rid) ]))
        ops;
      let in_range lo hi =
        BT.range_rids t ~lo:(BT.Inclusive (V.Int lo)) ~hi:(BT.Inclusive (V.Int hi))
        |> Array.to_list |> List.sort compare
      in
      let model_range lo hi =
        List.filter (fun (k, _) -> k >= lo && k <= hi) !model |> List.map snd |> List.sort compare
      in
      BT.check_invariants t
      && BT.size t = List.length !model
      && in_range 0 30 = model_range 0 30
      && in_range 5 15 = model_range 5 15)

(* qcheck: the range walk ([range], [range_rids]) against
   a model list under random inserts and removes.  Keys mix NULL, Int,
   Float and Str (Int 2 and Float 2. are one key) from a domain wide
   enough for three-level trees and narrow enough for duplicates;
   bounds cover every kind, absent keys and [lo > hi].  Each probe's
   node visits must equal a reference walk over [BT.shape] that tests
   every child and every leaf key linearly. *)
type btree_op = Ins of V.t | Del of int | Del_absent of V.t * int

let gen_key : V.t QCheck.Gen.t =
  QCheck.Gen.(
    frequency
      [
        (1, return V.Null);
        (3, map (fun i -> V.Int i) (int_range (-60) 60));
        (6, map (fun i -> V.Float (float_of_int i /. 4.)) (int_range (-2000) 2000));
        (3, map (fun i -> V.Str (Printf.sprintf "k%02d" i)) (int_bound 40));
      ])

let show_bound = function
  | BT.Unbounded -> "*"
  | BT.Inclusive k -> "[" ^ V.show k
  | BT.Exclusive k -> "(" ^ V.show k

let prop_btree_range_walk =
  let open QCheck.Gen in
  let op =
    frequency
      [ (7, map (fun k -> Ins k) gen_key); (2, map (fun i -> Del i) nat);
        (1, map2 (fun k i -> Del_absent (k, i)) gen_key (int_bound 5)) ]
  in
  let bound =
    frequency
      [ (1, return BT.Unbounded); (3, map (fun k -> BT.Inclusive k) gen_key);
        (3, map (fun k -> BT.Exclusive k) gen_key) ]
  in
  let gen =
    pair (list_size (int_range 0 3000) op) (list_size (int_range 1 12) (pair bound bound))
  in
  let print (ops, probes) =
    Printf.sprintf "%d ops; probes %s" (List.length ops)
      (String.concat " " (List.map (fun (lo, hi) -> show_bound lo ^ ".." ^ show_bound hi) probes))
  in
  let cmp = V.compare_key in
  let above lo k =
    match lo with
    | BT.Unbounded -> true
    | BT.Inclusive b -> cmp k b >= 0
    | BT.Exclusive b -> cmp k b > 0
  in
  let below hi k =
    match hi with
    | BT.Unbounded -> true
    | BT.Inclusive b -> cmp k b <= 0
    | BT.Exclusive b -> cmp k b < 0
  in
  let bound_key = function BT.Unbounded -> None | BT.Inclusive b | BT.Exclusive b -> Some b in
  (* the reference descent: every node on the way counts, a child is
     entered unless its separators rule it out, leaf keys are tested one
     by one (only the count matters here) *)
  let rec ref_visits lo hi = function
    | BT.Leaf_keys _ -> 1
    | BT.Node_keys (keys, kids) ->
        let nk = Array.length keys in
        let n = ref 1 in
        Array.iteri
          (fun i kid ->
            let lo_ok =
              i = nk || match bound_key lo with None -> true | Some b -> cmp keys.(i) b >= 0
            in
            let hi_ok =
              i = 0 || match bound_key hi with None -> true | Some b -> cmp keys.(i - 1) b <= 0
            in
            if lo_ok && hi_ok then n := !n + ref_visits lo hi kid)
          kids;
        !n
  in
  QCheck.Test.make ~name:"btree range walk matches model and reference visits" ~count:200
    (QCheck.make ~print gen)
    (fun (ops, probes) ->
      let t = BT.create () in
      (* model: (key, rid) newest first; rids are unique *)
      let model = ref [] and next_rid = ref 0 in
      List.iter
        (function
          | Ins k ->
              BT.insert t k !next_rid;
              model := (k, !next_rid) :: !model;
              incr next_rid
          | Del i -> (
              match !model with
              | [] -> ()
              | m ->
                  let k, rid = List.nth m (i mod List.length m) in
                  if not (BT.remove t k rid) then
                    QCheck.Test.fail_report "present entry not removed";
                  model := List.filter (fun (_, r) -> r <> rid) m)
          | Del_absent (k, i) ->
              (* a rid never handed out *)
              if BT.remove t k (-1 - i) then QCheck.Test.fail_report "absent entry removed")
        ops;
      let model = List.rev !model in
      let same_entries got want =
        List.length got = List.length want
        && List.for_all2 (fun (k, r) (k', r') -> r = r' && cmp k k' = 0) got want
      in
      BT.check_invariants t
      && List.for_all
           (fun (lo, hi) ->
             let want =
               List.filter (fun (k, _) -> above lo k && below hi k) model
               |> List.stable_sort (fun (a, _) (b, _) -> cmp a b)
             in
             let visits = ref_visits lo hi (BT.shape t) in
             let probe f =
               let p0 = BT.probes t and n0 = BT.node_visits t in
               let r = f () in
               (r, BT.probes t - p0, BT.node_visits t - n0)
             in
             let ranged, p1, n1 = probe (fun () -> BT.range t ~lo ~hi) in
             let rids, p2, n2 = probe (fun () -> BT.range_rids t ~lo ~hi) in
             (same_entries ranged want || QCheck.Test.fail_report "range differs from the model")
             && (Array.to_list rids = List.map snd want
                || QCheck.Test.fail_report "range_rids differs from the model")
             && ((p1, p2) = (1, 1) || QCheck.Test.fail_report "a walk is not one probe")
             && ((n1, n2) = (visits, visits)
                || QCheck.Test.fail_reportf "node visits %d/%d, reference %d" n1 n2 visits))
           ((BT.Unbounded, BT.Unbounded) :: probes))

(* ------------------------------------------------------------------ *)
(* tables and executor                                                 *)
(* ------------------------------------------------------------------ *)

let setup_db () =
  let db = DB.create () in
  let dept =
    DB.create_table db "dept"
      [
        { T.col_name = "deptno"; col_type = V.Tint };
        { T.col_name = "dname"; col_type = V.Tstr };
      ]
  in
  let emp =
    DB.create_table db "emp"
      [
        { T.col_name = "empno"; col_type = V.Tint };
        { T.col_name = "ename"; col_type = V.Tstr };
        { T.col_name = "sal"; col_type = V.Tint };
        { T.col_name = "deptno"; col_type = V.Tint };
      ]
  in
  T.insert_values dept [ V.Int 10; V.Str "ACCOUNTING" ];
  T.insert_values dept [ V.Int 40; V.Str "OPERATIONS" ];
  T.insert_values emp [ V.Int 7782; V.Str "CLARK"; V.Int 2450; V.Int 10 ];
  T.insert_values emp [ V.Int 7934; V.Str "MILLER"; V.Int 1300; V.Int 10 ];
  T.insert_values emp [ V.Int 7954; V.Str "SMITH"; V.Int 4900; V.Int 40 ];
  ignore (T.create_index emp ~name:"emp_sal" ~column:"sal");
  db

let test_table_errors () =
  let db = setup_db () in
  let dept = DB.table db "dept" in
  (match T.insert_values dept [ V.Int 1 ] with
  | exception T.Table_error _ -> ()
  | _ -> Alcotest.fail "arity mismatch must raise");
  (match DB.table db "ghost" with
  | exception DB.Unknown_table _ -> ()
  | _ -> Alcotest.fail "unknown table must raise");
  match T.column_pos dept "ghost" with
  | exception T.Table_error _ -> ()
  | _ -> Alcotest.fail "unknown column must raise"

let test_table_update_delete () =
  let db = setup_db () in
  let emp = DB.table db "emp" in
  let sal_pos = T.column_pos emp "sal" in
  let idx = List.hd emp.T.indexes in
  let rids_at v = BT.find idx.T.tree (V.Int v) in
  (* update maintains the index: old key entry out, new one in *)
  let clark = List.hd (rids_at 2450) in
  T.update emp clark [ (sal_pos, V.Int 2600) ];
  check ci "old key entry removed" 0 (List.length (rids_at 2450));
  check Alcotest.(list int) "new key entry present" [ clark ] (rids_at 2600);
  check cb "row itself updated" true ((T.row emp clark).(sal_pos) = V.Int 2600);
  check cb "index invariants" true (BT.check_invariants idx.T.tree);
  (* updating a non-indexed column leaves the tree untouched *)
  let before = BT.size idx.T.tree in
  T.update emp clark [ (T.column_pos emp "ename", V.Str "CLARKE") ];
  check ci "non-indexed update: tree unchanged" before (BT.size idx.T.tree);
  (* delete compacts the heap and rebuilds the index: every rid the
     index hands out must address the right surviving row *)
  let n = T.delete emp (rids_at 2600) in
  check ci "one row deleted" 1 n;
  check ci "heap compacted" 2 emp.T.nrows;
  (* delete replaces the index records wholesale — re-fetch *)
  let idx = List.hd emp.T.indexes in
  let rids_at v = BT.find idx.T.tree (V.Int v) in
  check ci "index rebuilt to survivors" 2 (BT.size idx.T.tree);
  let all =
    BT.range_rids idx.T.tree ~lo:BT.Unbounded ~hi:BT.Unbounded |> Array.to_list
  in
  List.iter
    (fun rid ->
      check cb "rid in compacted range" true (rid >= 0 && rid < emp.T.nrows);
      let row = T.row emp rid in
      let keyed = BT.find idx.T.tree row.(sal_pos) in
      check cb "index key matches the row it points at" true (List.mem rid keyed))
    all;
  check Alcotest.(list int) "survivors in key order"
    (List.sort compare (List.concat_map rids_at [ 1300; 4900 ]))
    (List.sort compare all);
  (* deleting everything leaves an empty, still-consistent table *)
  ignore (T.delete emp (List.init emp.T.nrows Fun.id));
  let idx = List.hd emp.T.indexes in
  check ci "empty heap" 0 emp.T.nrows;
  check ci "empty index" 0 (BT.size idx.T.tree)

let test_scan_filter_project () =
  let db = setup_db () in
  let plan =
    A.Project
      ( [ (A.col "ename", "ename") ],
        A.Filter (A.(col "sal" >. const_int 2000), A.Seq_scan { table = "emp"; alias = "e" }) )
  in
  let names = List.map (fun r -> V.to_string (List.assoc "ename" r)) (E.run db plan) in
  check Alcotest.(list string) "filtered names" [ "CLARK"; "SMITH" ] names

let test_index_scan () =
  let db = setup_db () in
  let plan =
    A.Index_scan
      {
        table = "emp";
        alias = "e";
        index_column = "sal";
        lo = A.Incl (A.const_int 2000);
        hi = A.Unbounded;
      }
  in
  let rows = E.run db plan in
  check ci "two rows" 2 (List.length rows);
  (* index scan returns key order *)
  let sals = List.map (fun r -> V.to_int (List.assoc "sal" r)) rows in
  check Alcotest.(list int) "key order" [ 2450; 4900 ] sals

let test_join () =
  let db = setup_db () in
  let plan =
    A.Nested_loop
      {
        outer = A.Seq_scan { table = "dept"; alias = "d" };
        inner = A.Seq_scan { table = "emp"; alias = "e" };
        join_cond = Some A.(qcol "e" "deptno" =. qcol "d" "deptno");
      }
  in
  check ci "join cardinality" 3 (List.length (E.run db plan))

let test_aggregate () =
  let db = setup_db () in
  let plan =
    A.Aggregate
      {
        group_by = [ (A.col "deptno", "deptno") ];
        aggs =
          [
            (A.Count_star, "n");
            (A.Sum (A.col "sal"), "total");
            (A.Min (A.col "sal"), "lo");
            (A.Max (A.col "sal"), "hi");
            (A.Avg (A.col "sal"), "avg");
          ];
        input = A.Seq_scan { table = "emp"; alias = "e" };
      }
  in
  let rows = E.run db plan in
  check ci "two groups" 2 (List.length rows);
  let g10 = List.find (fun r -> List.assoc "deptno" r = V.Int 10) rows in
  check ci "count" 2 (V.to_int (List.assoc "n" g10));
  check ci "sum" 3750 (V.to_int (List.assoc "total" g10));
  check ci "min" 1300 (V.to_int (List.assoc "lo" g10));
  check ci "max" 2450 (V.to_int (List.assoc "hi" g10))

let test_sort_limit () =
  let db = setup_db () in
  let plan =
    A.Limit
      (2, A.Sort ([ (A.col "sal", A.Desc) ], A.Seq_scan { table = "emp"; alias = "e" }))
  in
  let sals = List.map (fun r -> V.to_int (List.assoc "sal" r)) (E.run db plan) in
  check Alcotest.(list int) "top 2 by sal" [ 4900; 2450 ] sals

let test_scalar_subquery_correlated () =
  let db = setup_db () in
  (* per dept: count of its employees *)
  let sub =
    A.Aggregate
      {
        group_by = [];
        aggs = [ (A.Count_star, "n") ];
        input =
          A.Filter
            ( A.(qcol "e" "deptno" =. qcol "d" "deptno"),
              A.Seq_scan { table = "emp"; alias = "e" } );
      }
  in
  let plan = A.Project ([ (A.Scalar_subquery sub, "n") ], A.Seq_scan { table = "dept"; alias = "d" }) in
  let counts = List.map (fun r -> V.to_int (List.assoc "n" r)) (E.run db plan) in
  check Alcotest.(list int) "correlated counts" [ 2; 1 ] counts

let test_exists_case_nulls () =
  let db = setup_db () in
  let plan =
    A.Project
      ( [
          ( A.Case
              ( [ (A.(col "sal" >. const_int 2000), A.const_str "high") ],
                Some (A.const_str "low") ),
            "band" );
          (A.Is_null (A.Const V.Null), "isnull");
        ],
        A.Seq_scan { table = "emp"; alias = "e" } )
  in
  let bands = List.map (fun r -> V.to_string (List.assoc "band" r)) (E.run db plan) in
  check Alcotest.(list string) "case bands" [ "high"; "low"; "high" ] bands

let test_xml_publishing_exprs () =
  let db = setup_db () in
  let plan =
    A.Project
      ( [
          ( A.Xml_element
              ( "e",
                [ ("no", A.col "empno") ],
                [ A.Xml_element ("name", [], [ A.col "ename" ]) ] ),
            "x" );
        ],
        A.Filter (A.(col "sal" >. const_int 4000), A.Seq_scan { table = "emp"; alias = "e" }) )
  in
  match E.run db plan with
  | [ row ] ->
      check cs "published xml" "<e no=\"7954\"><name>SMITH</name></e>"
        (V.to_string (List.assoc "x" row))
  | _ -> Alcotest.fail "expected one row"

let test_division_semantics () =
  let db = setup_db () in
  let one r = List.hd (E.run db (A.Project ([ (r, "v") ], A.Values { cols = [ "dummy" ]; rows = [ [ V.Int 0 ] ] }))) in
  check ci "integer div" 3 (V.to_int (List.assoc "v" (one A.(Binop (Div, const_int 7, const_int 2)))));
  check cs "float div" "3.5"
    (V.to_string (List.assoc "v" (one A.(Binop (Fdiv, const_int 7, const_int 2)))));
  match E.run db (A.Project ([ (A.(Binop (Div, const_int 1, const_int 0)), "v") ],
                             A.Values { cols = [ "d" ]; rows = [ [ V.Int 0 ] ] })) with
  | exception E.Exec_error _ -> ()
  | _ -> Alcotest.fail "division by zero must raise"

let test_nan_truthiness () =
  (* regression: Float NaN must be false (XPath/SQL boolean semantics);
     the naive [f <> 0.0] test made NaN truthy *)
  check cb "NaN is false" false (E.bool_of_value (V.Float Float.nan));
  check cb "0.0 is false" false (E.bool_of_value (V.Float 0.0));
  check cb "-0.0 is false" false (E.bool_of_value (V.Float (-0.0)));
  check cb "1.5 is true" true (E.bool_of_value (V.Float 1.5));
  check cb "inf is true" true (E.bool_of_value (V.Float Float.infinity));
  (* a 0/0 filter condition evaluates to NaN and must reject every row *)
  let db = setup_db () in
  let nan_cond = A.Binop (A.Fdiv, A.Const (V.Float 0.0), A.Const (V.Float 0.0)) in
  check ci "NaN filter rejects all" 0
    (List.length (E.run db (A.Filter (nan_cond, A.Seq_scan { table = "emp"; alias = "e" }))));
  (* and a NaN CASE condition must fall through to the ELSE branch *)
  let case_plan =
    A.Project
      ( [ (A.Case ([ (nan_cond, A.const_str "then") ], Some (A.const_str "else")), "v") ],
        A.Values { cols = [ "d" ]; rows = [ [ V.Int 0 ] ] } )
  in
  match E.run db case_plan with
  | [ row ] -> check cs "NaN case takes else" "else" (V.to_string (List.assoc "v" row))
  | _ -> Alcotest.fail "expected one row"

let test_sql_round_negative_zero () =
  (* XPath §4.4 semantics mirrored in the SQL executor: round(-0.2) and
     round(-0.5) are negative zero, not plain 0 with the wrong sign *)
  let db = DB.create () in
  let round v =
    let plan =
      A.Project
        ( [ (A.Fn ("round", [ A.Const (V.Float v) ]), "r") ],
          A.Values { cols = [ "d" ]; rows = [ [ V.Int 0 ] ] } )
    in
    match E.run db plan with
    | [ row ] -> ( match List.assoc "r" row with V.Float f -> f | _ -> Alcotest.fail "not float")
    | _ -> Alcotest.fail "expected one row"
  in
  let is_neg_zero f = f = 0.0 && 1.0 /. f = Float.neg_infinity in
  check cb "round(-0.2) is -0" true (is_neg_zero (round (-0.2)));
  check cb "round(-0.5) is -0" true (is_neg_zero (round (-0.5)));
  check (Alcotest.float 0.0) "round(-0.51)" (-1.0) (round (-0.51));
  check (Alcotest.float 0.0) "round(2.5)" 3.0 (round 2.5);
  check cb "round(nan) is nan" true (Float.is_nan (round Float.nan));
  check (Alcotest.float 0.0) "round(inf)" Float.infinity (round Float.infinity)

(* ------------------------------------------------------------------ *)
(* instrumentation (EXPLAIN ANALYZE)                                   *)
(* ------------------------------------------------------------------ *)

module ST = Xdb_rel.Stats

let test_btree_counters () =
  let t = BT.create () in
  for i = 1 to 1000 do
    BT.insert t (V.Int i) i
  done;
  check ci "fresh probes" 0 (BT.probes t);
  ignore (BT.find t (V.Int 500));
  check ci "one probe" 1 (BT.probes t);
  check cb "visits >= height" true (BT.node_visits t >= BT.height t);
  let v1 = BT.node_visits t in
  ignore (BT.range t ~lo:(BT.Inclusive (V.Int 10)) ~hi:(BT.Inclusive (V.Int 20)));
  check ci "range counts a probe" 2 (BT.probes t);
  check cb "range visits nodes" true (BT.node_visits t > v1);
  BT.reset_counters t;
  check ci "reset probes" 0 (BT.probes t);
  check ci "reset visits" 0 (BT.node_visits t)

let test_run_analyzed_index_scan () =
  let db = setup_db () in
  let plan =
    A.Index_scan
      {
        table = "emp";
        alias = "e";
        index_column = "sal";
        lo = A.Incl (A.const_int 2450);
        hi = A.Incl (A.const_int 2450);
      }
  in
  let rows, stats = E.run_analyzed db plan in
  check ci "one row" 1 (List.length rows);
  (match ST.find stats plan with
  | Some s ->
      check ci "actual rows" 1 s.ST.rows;
      check ci "one loop" 1 s.ST.loops;
      check ci "one btree probe" 1 s.ST.btree_probes;
      check cb "nodes visited" true (s.ST.btree_nodes >= 1);
      check ci "heap rows = produced" 1 s.ST.heap_rows
  | None -> Alcotest.fail "root operator not in stats");
  let text = O.explain_analyze db plan stats in
  check cb "annotated line present" true (contains text "actual=1 loops=1");
  check cb "probe count rendered" true (contains text "probes=1");
  check cb "estimate on same line" true (contains text "est=")

let test_run_analyzed_subplans_and_json () =
  let db = setup_db () in
  (* correlated subquery: the inner aggregate must appear in the stats
     with one loop per outer row *)
  let sub =
    A.Aggregate
      {
        group_by = [];
        aggs = [ (A.Count_star, "n") ];
        input =
          A.Filter
            ( A.(qcol "e" "deptno" =. qcol "d" "deptno"),
              A.Seq_scan { table = "emp"; alias = "e" } );
      }
  in
  let plan =
    A.Project ([ (A.Scalar_subquery sub, "n") ], A.Seq_scan { table = "dept"; alias = "d" })
  in
  let rows, stats = E.run_analyzed db plan in
  check ci "two dept rows" 2 (List.length rows);
  (match ST.find stats sub with
  | Some s ->
      check ci "subquery executed per outer row" 2 s.ST.loops;
      check ci "one aggregate row per loop" 2 s.ST.rows
  | None -> Alcotest.fail "subplan not registered in stats");
  check ci "all operators registered" 5 (List.length (ST.entries stats));
  check ci "root rows" 2 (ST.root_rows stats);
  (* JSON rendering is well-formed enough to keep field order stable *)
  let json = ST.to_json stats in
  check cb "json array" true
    (String.length json > 2 && json.[0] = '[' && json.[String.length json - 1] = ']');
  check cb "json mentions SeqScan" true (contains json {|"op":"SeqScan dept"|})

let test_drop_index_changes_plan () =
  let db = setup_db () in
  let plan =
    A.Filter (A.(col "sal" =. const_int 2450), A.Seq_scan { table = "emp"; alias = "e" })
  in
  (match O.optimize db plan with
  | A.Index_scan { index_column = "sal"; _ } -> ()
  | p -> Alcotest.failf "expected index scan before drop, got %s" (A.plan_sql p));
  T.drop_index (DB.table db "emp") ~name:"emp_sal";
  (match O.optimize db plan with
  | A.Filter (_, A.Seq_scan _) -> ()
  | p -> Alcotest.failf "expected full scan after drop, got %s" (A.plan_sql p));
  (* instrumented full scan touches every heap row *)
  let rows, stats = E.run_analyzed db (O.optimize db plan) in
  check ci "same result" 1 (List.length rows);
  match ST.entries stats with
  | _ :: { ST.node = A.Seq_scan _; op; _ } :: _ ->
      check ci "full scan heap rows" 3 op.ST.heap_rows;
      check ci "no btree probes" 0 op.ST.btree_probes
  | _ -> Alcotest.fail "expected Filter over SeqScan entries"

(* ------------------------------------------------------------------ *)
(* statistics (ANALYZE / Colstats / Cost)                              *)
(* ------------------------------------------------------------------ *)

module C = Xdb_rel.Colstats
module AN = Xdb_rel.Analyze
module CO = Xdb_rel.Cost

let test_colstats_histogram () =
  (* 100 distinct values, 4 buckets: equi-depth boundaries land on the
     quartiles *)
  let s = C.compute ~n_buckets:4 (List.init 100 (fun i -> V.Int (i + 1))) in
  check ci "ndv" 100 s.C.ndv;
  check (Alcotest.float 1e-9) "no nulls" 0.0 s.C.null_frac;
  check cb "min" true (s.C.min_v = Some (V.Int 1));
  check cb "max" true (s.C.max_v = Some (V.Int 100));
  check ci "unique column has no MCVs" 0 (List.length s.C.mcvs);
  check cb "quartile boundaries" true
    (Array.to_list s.C.bounds = [ V.Int 1; V.Int 25; V.Int 50; V.Int 75; V.Int 100 ]);
  let close msg exp got = check (Alcotest.float 0.03) msg exp got in
  close "lt median" 0.5 (C.selectivity_lt s (V.Int 50));
  close "lt first quartile" 0.25 (C.selectivity_lt s (V.Int 25));
  close "lt below min" 0.0 (C.selectivity_lt s (V.Int 0));
  close "lt above max" 1.0 (C.selectivity_lt s (V.Int 1000));
  close "le = lt + eq"
    (C.selectivity_lt s (V.Int 50) +. C.selectivity_eq s (V.Int 50))
    (C.selectivity_le s (V.Int 50))

let test_colstats_skew_and_mcvs () =
  (* 90 copies of 1 plus ten singletons: one MCV, NDV counts runs *)
  let s = C.compute (List.init 90 (fun _ -> V.Int 1) @ List.init 10 (fun i -> V.Int (i + 2))) in
  check ci "ndv on skewed data" 11 s.C.ndv;
  (match s.C.mcvs with
  | [ (V.Int 1, f) ] -> check (Alcotest.float 1e-9) "MCV frequency" 0.9 f
  | _ -> Alcotest.fail "expected exactly one MCV");
  check (Alcotest.float 1e-9) "eq on the MCV" 0.9 (C.selectivity_eq s (V.Int 1));
  check (Alcotest.float 1e-9) "eq uniform over the rest" 0.01 (C.selectivity_eq s (V.Int 5));
  check (Alcotest.float 1e-9) "eq out of range" 0.005 (C.selectivity_eq s (V.Int 999));
  check (Alcotest.float 1e-6) "eq unknown = (1-nulls)/ndv" (1.0 /. 11.0)
    (C.selectivity_eq_unknown s);
  (* null accounting *)
  let s2 = C.compute [ V.Int 1; V.Null; V.Null; V.Int 2 ] in
  check (Alcotest.float 1e-9) "null fraction" 0.5 s2.C.null_frac;
  check ci "ndv ignores nulls" 2 s2.C.ndv

(* dept/emp scaled up so histogram estimates are distinguishable from the
   System-R defaults: 90 employees, sal = 100..9000 uniform, three depts *)
let setup_scaled_db () =
  let db = DB.create () in
  let dept =
    DB.create_table db "dept"
      [
        { T.col_name = "deptno"; col_type = V.Tint };
        { T.col_name = "dname"; col_type = V.Tstr };
      ]
  in
  let emp =
    DB.create_table db "emp"
      [
        { T.col_name = "empno"; col_type = V.Tint };
        { T.col_name = "ename"; col_type = V.Tstr };
        { T.col_name = "sal"; col_type = V.Tint };
        { T.col_name = "deptno"; col_type = V.Tint };
      ]
  in
  List.iter
    (fun i -> T.insert_values dept [ V.Int i; V.Str (Printf.sprintf "D%d" i) ])
    [ 1; 2; 3 ];
  for i = 1 to 90 do
    T.insert_values emp
      [ V.Int (7000 + i); V.Str (Printf.sprintf "E%d" i); V.Int (i * 100); V.Int ((i mod 3) + 1) ]
  done;
  ignore (T.create_index emp ~name:"emp_sal" ~column:"sal");
  ignore (T.create_index emp ~name:"emp_deptno" ~column:"deptno");
  db

let test_analyze_sal_selectivity () =
  (* the paper's Tables 7/8 predicate, emp.sal > 2000 *)
  let db = setup_scaled_db () in
  let pred = A.(col "sal" >. const_int 2000) in
  let plan = A.Filter (pred, A.Seq_scan { table = "emp"; alias = "e" }) in
  check (Alcotest.float 1e-6) "System-R default before ANALYZE" 30.0 (O.estimate_rows db plan);
  check ci "every row sampled" 90 (AN.table db "emp");
  let actual = float_of_int (List.length (E.run db plan)) in
  check (Alcotest.float 1e-9) "actual rows" 70.0 actual;
  let est = O.estimate_rows db plan in
  check cb "histogram estimate within 15% of actual" true
    (Float.abs (est -. actual) /. actual < 0.15);
  (* the default-only path is preserved for q-error baselines *)
  check (Alcotest.float 1e-6) "default estimate still available" 30.0
    (CO.estimate_rows_default db plan);
  let sel = CO.conjunct_selectivity db ~table:"emp" ~alias:"e" pred in
  check cb "conjunct selectivity ~ 70/90" true (Float.abs (sel -. (70.0 /. 90.0)) < 0.1)

(* above the sample size ANALYZE strides over the rows (every second
   one at 16,000 rows), and the rows holding the extremes fall between
   strides; min/max still come from every row *)
let test_analyze_sampled_extremes () =
  let db = DB.create () in
  let t = DB.create_table db "big" [ { T.col_name = "k"; col_type = V.Tint } ] in
  let n = 16_000 in
  for rid = 0 to n - 1 do
    T.insert_values t [ V.Int (if rid = 1 then -1 else if rid = n - 1 then n else rid) ]
  done;
  check ci "every second row sampled" (n / 2) (AN.table db "big");
  match DB.column_stats db "big" "k" with
  | None -> Alcotest.fail "no statistics for big.k"
  | Some s ->
      check cb "min_v is the table's minimum" true (s.C.min_v = Some (V.Int (-1)));
      check cb "max_v is the table's maximum" true (s.C.max_v = Some (V.Int n));
      check cb "the top key is costed in range" true
        (C.selectivity_eq s (V.Int n) > 0.5 /. float_of_int s.C.n_sampled)

let test_cost_based_conjunct_choice () =
  let db = setup_scaled_db () in
  (* deptno = 1 is written first; sal > 8000 is far more selective *)
  let cond = A.(Binop (And, col "deptno" =. const_int 1, col "sal" >. const_int 8000)) in
  let plan = A.Filter (cond, A.Seq_scan { table = "emp"; alias = "e" }) in
  (match O.optimize db plan with
  | A.Filter (_, A.Index_scan { index_column = "deptno"; _ }) -> ()
  | p -> Alcotest.failf "pre-ANALYZE must take the first indexed conjunct, got %s" (A.plan_sql p));
  ignore (AN.table db "emp");
  (match O.optimize db plan with
  | A.Filter (_, A.Index_scan { index_column = "sal"; _ }) -> ()
  | p -> Alcotest.failf "post-ANALYZE must take the most selective index, got %s" (A.plan_sql p));
  let sorted p = List.sort compare (E.run db p) in
  check cb "both plans return the same rows" true (sorted plan = sorted (O.optimize db plan))

(* ------------------------------------------------------------------ *)
(* optimizer                                                           *)
(* ------------------------------------------------------------------ *)

let test_optimizer_index_selection () =
  let db = setup_db () in
  let plan =
    A.Filter (A.(col "sal" >. const_int 2000), A.Seq_scan { table = "emp"; alias = "e" })
  in
  (match O.optimize db plan with
  | A.Index_scan { index_column = "sal"; lo = A.Excl _; hi = A.Unbounded; _ } -> ()
  | p -> Alcotest.failf "expected index scan, got %s" (A.plan_sql p));
  (* conjunct splitting leaves a residual filter *)
  let plan2 =
    A.Filter
      ( A.(Binop (And, col "sal" >. const_int 2000, col "deptno" =. const_int 10)),
        A.Seq_scan { table = "emp"; alias = "e" } )
  in
  (match O.optimize db plan2 with
  | A.Filter (_, A.Index_scan { index_column = "sal"; _ }) -> ()
  | p -> Alcotest.failf "expected residual filter over index scan, got %s" (A.plan_sql p));
  (* flipped comparison still sargable *)
  let plan3 =
    A.Filter (A.(const_int 2000 <. col "sal"), A.Seq_scan { table = "emp"; alias = "e" })
  in
  (match O.optimize db plan3 with
  | A.Index_scan { lo = A.Excl _; _ } -> ()
  | p -> Alcotest.failf "flipped comparison: %s" (A.plan_sql p));
  (* no index on dname: stays a filter *)
  let plan4 =
    A.Filter (A.(col "dname" =. const_str "X"), A.Seq_scan { table = "dept"; alias = "d" })
  in
  match O.optimize db plan4 with
  | A.Filter (_, A.Seq_scan _) -> ()
  | p -> Alcotest.failf "expected plain filter, got %s" (A.plan_sql p)

let test_cardinality_estimates () =
  let db = setup_db () in
  let scan = A.Seq_scan { table = "emp"; alias = "e" } in
  let eq_scan =
    A.Index_scan
      { table = "emp"; alias = "e"; index_column = "sal";
        lo = A.Incl (A.const_int 2450); hi = A.Incl (A.const_int 2450) }
  in
  let range_scan =
    A.Index_scan
      { table = "emp"; alias = "e"; index_column = "sal";
        lo = A.Excl (A.const_int 2000); hi = A.Unbounded }
  in
  let n = O.estimate_rows db scan in
  check cb "scan = table size" true (n = 3.0);
  check cb "eq <= range" true (O.estimate_rows db eq_scan <= O.estimate_rows db range_scan);
  check cb "range < scan" true (O.estimate_rows db range_scan < n);
  let filtered = A.Filter (A.(col "sal" >. const_int 0), scan) in
  check cb "filter shrinks" true (O.estimate_rows db filtered < n);
  check cb "grouped aggregate" true
    (O.estimate_rows db
       (A.Aggregate { group_by = [ (A.col "deptno", "d") ]; aggs = []; input = scan })
    < n);
  check cb "global aggregate = 1" true
    (O.estimate_rows db (A.Aggregate { group_by = []; aggs = []; input = scan }) = 1.0)

let test_filter_pushdown_through_project () =
  let db = setup_db () in
  let fields = [ (A.col "sal", "s"); (A.col "ename", "en") ] in
  let plan =
    A.Filter
      (A.(col "s" >. const_int 2000), A.Project (fields, A.Seq_scan { table = "emp"; alias = "e" }))
  in
  (* the filter on the renamed column moves below the projection and then
     finds the sal index *)
  (match O.optimize db plan with
  | A.Project (_, A.Index_scan { index_column = "sal"; lo = A.Excl _; _ }) -> ()
  | p -> Alcotest.failf "expected filter pushed below projection, got %s" (A.plan_sql p));
  let names p =
    E.run db p |> List.map (fun r -> V.to_string (List.assoc "en" r)) |> List.sort compare
  in
  check Alcotest.(list string) "rows preserved" (names plan) (names (O.optimize db plan));
  (* computed columns push too: the defining expression is substituted *)
  let plan2 =
    A.Filter
      ( A.(col "double_sal" >. const_int 4000),
        A.Project
          ( [ (A.Binop (A.Mul, A.col "sal", A.const_int 2), "double_sal"); (A.col "ename", "en") ],
            A.Seq_scan { table = "emp"; alias = "e" } ) )
  in
  (match O.optimize db plan2 with
  | A.Project (_, A.Filter (_, A.Seq_scan _)) -> ()
  | p -> Alcotest.failf "computed column should push below the project, got %s" (A.plan_sql p));
  check ci "computed pushdown rows" 2 (List.length (E.run db (O.optimize db plan2)));
  (* alias-qualified references resolve in outer scope above the projection
     and must not be pushed into it *)
  let plan3 =
    A.Filter
      ( A.(qcol "e" "sal" >. const_int 2000),
        A.Project (fields, A.Seq_scan { table = "emp"; alias = "e" }) )
  in
  match O.optimize db plan3 with
  | A.Filter (_, A.Project _) -> ()
  | p -> Alcotest.failf "alias-qualified filter must stay above, got %s" (A.plan_sql p)

let test_limit_below_project () =
  let db = setup_db () in
  let plan =
    A.Limit (2, A.Project ([ (A.col "ename", "en") ], A.Seq_scan { table = "emp"; alias = "e" }))
  in
  (match O.optimize db plan with
  | A.Project (_, A.Limit (2, A.Seq_scan _)) -> ()
  | p -> Alcotest.failf "expected limit below projection, got %s" (A.plan_sql p));
  check cb "rows unchanged" true (E.run db plan = E.run db (O.optimize db plan))

let test_index_nl_join () =
  let db = setup_scaled_db () in
  let plan =
    A.Nested_loop
      {
        outer = A.Seq_scan { table = "dept"; alias = "d" };
        inner = A.Seq_scan { table = "emp"; alias = "e" };
        join_cond = Some A.(qcol "e" "deptno" =. qcol "d" "deptno");
      }
  in
  (* without statistics the join is untouched *)
  (match O.optimize db plan with
  | A.Nested_loop { inner = A.Seq_scan _; _ } -> ()
  | p -> Alcotest.failf "pre-ANALYZE join must be unchanged, got %s" (A.plan_sql p));
  let baseline = List.sort compare (E.run db plan) in
  ignore (AN.all db);
  let optimized = O.optimize db plan in
  (match optimized with
  | A.Nested_loop { inner = A.Index_scan { index_column = "deptno"; _ }; join_cond = Some _; _ }
    -> ()
  | p -> Alcotest.failf "expected correlated index probe on the inner side, got %s" (A.plan_sql p));
  check ci "join cardinality" 90 (List.length (E.run db optimized));
  check cb "probe join = scan join" true (List.sort compare (E.run db optimized) = baseline)

let test_join_reorder_by_cost () =
  let db = DB.create () in
  let big =
    DB.create_table db "big"
      [ { T.col_name = "bid"; col_type = V.Tint }; { T.col_name = "bval"; col_type = V.Tint } ]
  in
  let small =
    DB.create_table db "small"
      [ { T.col_name = "sid"; col_type = V.Tint }; { T.col_name = "sval"; col_type = V.Tstr } ]
  in
  for i = 1 to 100 do
    T.insert_values big [ V.Int (i mod 5); V.Int i ]
  done;
  for i = 0 to 4 do
    T.insert_values small [ V.Int i; V.Str (Printf.sprintf "s%d" i) ]
  done;
  ignore (T.create_index big ~name:"big_bid" ~column:"bid");
  let plan =
    A.Nested_loop
      {
        outer = A.Seq_scan { table = "big"; alias = "b" };
        inner = A.Seq_scan { table = "small"; alias = "s" };
        join_cond = Some A.(qcol "b" "bid" =. qcol "s" "sid");
      }
  in
  (* rows in a canonical binding order so the two join orders compare *)
  let norm p =
    E.run db p
    |> List.map (fun r ->
           ( V.to_int (List.assoc "bid" r),
             V.to_int (List.assoc "bval" r),
             V.to_string (List.assoc "sval" r) ))
    |> List.sort compare
  in
  let baseline = norm plan in
  (match O.optimize db plan with
  | A.Nested_loop { outer = A.Seq_scan { table = "big"; _ }; inner = A.Seq_scan _; _ } -> ()
  | p -> Alcotest.failf "pre-ANALYZE join order must be kept, got %s" (A.plan_sql p));
  ignore (AN.all db);
  (match O.optimize db plan with
  | A.Nested_loop
      {
        outer = A.Seq_scan { table = "small"; _ };
        inner = A.Index_scan { table = "big"; index_column = "bid"; _ };
        _;
      } -> ()
  | p -> Alcotest.failf "expected small as outer probing big's index, got %s" (A.plan_sql p));
  check cb "reordered join = original" true (norm (O.optimize db plan) = baseline)

(* hash-join executor semantics: all four kinds, NULL keys on both sides,
   duplicate build keys, and compiled ≡ interpreted down to per-operator
   row / build / probe counters *)
let hash_join_db () =
  let db = DB.create () in
  let l =
    DB.create_table db "l"
      [ { T.col_name = "lid"; col_type = V.Tint }; { T.col_name = "lk"; col_type = V.Tint } ]
  in
  let r =
    DB.create_table db "r"
      [ { T.col_name = "rid"; col_type = V.Tint }; { T.col_name = "rk"; col_type = V.Tint } ]
  in
  List.iter
    (fun (i, k) -> T.insert_values l [ V.Int i; k ])
    [ (1, V.Int 1); (2, V.Int 2); (3, V.Int 2); (4, V.Null); (5, V.Int 5); (6, V.Int 7) ];
  List.iter
    (fun (i, k) -> T.insert_values r [ V.Int i; k ])
    [ (1, V.Int 2); (2, V.Int 2); (3, V.Null); (4, V.Int 5); (5, V.Int 9) ];
  db

let hj_plan kind =
  A.Hash_join
    {
      outer = A.Seq_scan { table = "l"; alias = "l" };
      inner = A.Seq_scan { table = "r"; alias = "r" };
      keys = [ (A.qcol "l" "lk", A.qcol "r" "rk") ];
      kind;
    }

let hj_counters stats =
  List.filter_map
    (fun (e : Xdb_rel.Stats.entry) ->
      if String.length e.label >= 8 && String.sub e.label 0 8 = "HashJoin" then
        Some (e.op.Xdb_rel.Stats.build_rows, e.op.Xdb_rel.Stats.probe_hits)
      else None)
    (Xdb_rel.Stats.entries stats)

let test_hash_join_exec () =
  let db = hash_join_db () in
  let run_both kind =
    let plan = hj_plan kind in
    let crows, cstats = E.run_analyzed db plan in
    let irows, istats = Ref_exec.run_analyzed db plan in
    check cb "compiled rows = interpreted rows" true (crows = irows);
    check cb "rows signature identical" true
      (Xdb_rel.Stats.rows_signature cstats = Xdb_rel.Stats.rows_signature istats);
    check cb "build/probe counters identical" true (hj_counters cstats = hj_counters istats);
    (crows, hj_counters cstats)
  in
  let inner_rows, inner_ctr = run_both A.Inner in
  check ci "inner rows" 5 (List.length inner_rows);
  check cb "inner counters" true (inner_ctr = [ (5, 5) ]);
  (* inner hash join ≡ nested loop with an equality join condition,
     including row order (per-probe-row, build arrival order) *)
  let nl =
    A.Nested_loop
      {
        outer = A.Seq_scan { table = "l"; alias = "l" };
        inner = A.Seq_scan { table = "r"; alias = "r" };
        join_cond = Some A.(qcol "l" "lk" =. qcol "r" "rk");
      }
  in
  let pair r = (V.to_int (List.assoc "lid" r), V.to_int (List.assoc "rid" r)) in
  check cb "inner ≡ nested loop (same order)" true
    (List.map pair inner_rows = List.map pair (E.run db nl));
  let lo_rows, lo_ctr = run_both A.Left_outer in
  check ci "left outer rows" 8 (List.length lo_rows);
  check cb "left outer counters" true (lo_ctr = [ (5, 5) ]);
  let unmatched =
    List.filter (fun r -> V.is_null (List.assoc "rid" r)) lo_rows
    |> List.map (fun r -> V.to_int (List.assoc "lid" r))
    |> List.sort compare
  in
  check cb "unmatched probes null-padded" true (unmatched = [ 1; 4; 6 ]);
  let semi_rows, semi_ctr = run_both A.Semi in
  check cb "semi = probes with a match" true
    (List.map (fun r -> V.to_int (List.assoc "lid" r)) semi_rows = [ 2; 3; 5 ]);
  check cb "semi counters" true (semi_ctr = [ (5, 3) ]);
  let anti_rows, anti_ctr = run_both A.Anti in
  (* NOT EXISTS semantics: the NULL-key probe row (lid 4) is kept *)
  check cb "anti keeps unmatched and NULL-key probes" true
    (List.map (fun r -> V.to_int (List.assoc "lid" r)) anti_rows = [ 1; 4; 6 ]);
  check cb "anti counters" true (anti_ctr = [ (5, 3) ]);
  (* EXPLAIN surfaces: the plan renders as a HashJoin line, EXPLAIN
     ANALYZE carries the build/probe counters *)
  let explained = A.explain (hj_plan A.Semi) in
  check cb "explain shows HashJoin(semi, ...)" true (contains explained "HashJoin(semi");
  let inner_plan = hj_plan A.Inner in
  let _, st = E.run_analyzed db inner_plan in
  let analyzed = O.explain_analyze db inner_plan st in
  if not (contains analyzed "build_rows=5 probe_hits=5") then
    Alcotest.failf "explain analyze missing hash counters:\n%s" analyzed

(* EXISTS / NOT EXISTS unnesting into Semi/Anti hash joins — stats-gated,
   NULL keys preserved through the rewrite *)
let test_semi_anti_unnest () =
  let db = hash_join_db () in
  let exists_cond =
    A.Exists
      (A.Filter (A.(qcol "s" "rk" =. qcol "l" "lk"), A.Seq_scan { table = "r"; alias = "s" }))
  in
  let semi_plan = A.Filter (exists_cond, A.Seq_scan { table = "l"; alias = "l" }) in
  let anti_plan = A.Filter (A.Not exists_cond, A.Seq_scan { table = "l"; alias = "l" }) in
  (* without statistics both plans are byte-unchanged *)
  check cs "pre-ANALYZE semi fingerprint" (A.plan_sql semi_plan) (A.plan_sql (O.optimize db semi_plan));
  check cs "pre-ANALYZE anti fingerprint" (A.plan_sql anti_plan) (A.plan_sql (O.optimize db anti_plan));
  let semi_base = E.run db semi_plan and anti_base = E.run db anti_plan in
  ignore (AN.all db);
  (match O.optimize db semi_plan with
  | A.Hash_join { kind = A.Semi; keys = [ _ ]; _ } -> ()
  | p -> Alcotest.failf "expected EXISTS to unnest into a semi join, got %s" (A.plan_sql p));
  (match O.optimize db anti_plan with
  | A.Hash_join { kind = A.Anti; keys = [ _ ]; _ } -> ()
  | p -> Alcotest.failf "expected NOT EXISTS to unnest into an anti join, got %s" (A.plan_sql p));
  check cb "semi join = correlated EXISTS" true (E.run db (O.optimize db semi_plan) = semi_base);
  check cb "anti join = correlated NOT EXISTS" true (E.run db (O.optimize db anti_plan) = anti_base);
  (* local build-side predicates stay on the build side *)
  let local_cond =
    A.Exists
      (A.Filter
         ( A.(qcol "s" "rk" =. qcol "l" "lk" &&. (qcol "s" "rid" >. const_int 1)),
           A.Seq_scan { table = "r"; alias = "s" } ))
  in
  let local_plan = A.Filter (local_cond, A.Seq_scan { table = "l"; alias = "l" }) in
  let local_base = E.run db local_plan in
  (match O.optimize db local_plan with
  | A.Hash_join { kind = A.Semi; inner = A.Filter _ | A.Index_scan _; _ } -> ()
  | p -> Alcotest.failf "expected local predicate on the build side, got %s" (A.plan_sql p));
  check cb "local predicate preserved" true (E.run db (O.optimize db local_plan) = local_base)

(* pass-order regression: join-graph isolation runs before the bottom-up
   rewrite, so a single-relation interval pair lifted out of the join
   region still becomes a two-sided index range scan, and an equi-join
   conjunct buried in a filter above a cross product becomes a join *)
let test_joingraph_pass_order () =
  let db = DB.create () in
  let f =
    DB.create_table db "f"
      [ { T.col_name = "fid"; col_type = V.Tint }; { T.col_name = "fv"; col_type = V.Tint } ]
  in
  let g =
    DB.create_table db "g"
      [ { T.col_name = "gid"; col_type = V.Tint }; { T.col_name = "gref"; col_type = V.Tint } ]
  in
  for i = 1 to 200 do
    T.insert_values f [ V.Int i; V.Int i ]
  done;
  for i = 1 to 20 do
    T.insert_values g [ V.Int i; V.Int (i * 10) ]
  done;
  ignore (T.create_index f ~name:"f_fv" ~column:"fv");
  let cond =
    A.(
      qcol "f" "fv" >. const_int 10
      &&. (qcol "f" "fv" <. const_int 90)
      &&. (qcol "f" "fid" =. qcol "g" "gref"))
  in
  let plan =
    A.Filter
      ( cond,
        A.Nested_loop
          {
            outer = A.Seq_scan { table = "f"; alias = "f" };
            inner = A.Seq_scan { table = "g"; alias = "g" };
            join_cond = None;
          } )
  in
  (* without statistics the whole pipeline is the identity on this shape *)
  check cs "pre-ANALYZE fingerprint" (A.plan_sql plan) (A.plan_sql (O.optimize db plan));
  let norm p =
    E.run db p
    |> List.map (fun r -> (V.to_int (List.assoc "fid" r), V.to_int (List.assoc "gid" r)))
    |> List.sort compare
  in
  let baseline = norm plan in
  ignore (AN.all db);
  let optimized = O.optimize db plan in
  (* the f leaf must end up as the merged two-sided range probe — only
     possible if isolation pushed the interval pair onto the leaf before
     the access-path rewrite ran *)
  let rec has_two_sided = function
    | A.Index_scan { table = "f"; index_column = "fv"; lo; hi; _ } ->
        lo <> A.Unbounded && hi <> A.Unbounded
    | A.Index_scan _ | A.Seq_scan _ | A.Values _ -> false
    | A.Filter (_, i) | A.Project (_, i) | A.Sort (_, i) | A.Limit (_, i) -> has_two_sided i
    | A.Nested_loop { outer; inner; _ } | A.Hash_join { outer; inner; _ } ->
        has_two_sided outer || has_two_sided inner
    | A.Aggregate { input; _ } -> has_two_sided input
  in
  (match optimized with
  | A.Hash_join _ | A.Nested_loop { join_cond = Some _; _ }
  | A.Filter (_, (A.Hash_join _ | A.Nested_loop _)) ->
      ()
  | p -> Alcotest.failf "expected the cross product to become a join, got %s" (A.plan_sql p));
  check cb "two-sided range probe on f.fv" true (has_two_sided optimized);
  check cb "ordered join = baseline" true (norm optimized = baseline);
  check cb "compiled = interpreted" true
    (let c, cs' = E.run_analyzed db optimized and _, is' = Ref_exec.run_analyzed db optimized in
     ignore c;
     Xdb_rel.Stats.rows_signature cs' = Xdb_rel.Stats.rows_signature is')

(* property: random three-table join regions and EXISTS shapes, random
   indexes, NULL keys, any ANALYZE subset — the set-oriented pipeline
   (hash joins, semi/anti unnesting, greedy ordering) returns exactly the
   rows of the unoptimized nested-loop plans, on both executors *)
let prop_hash_join_equivalence =
  QCheck.Test.make ~name:"hash-join pipeline ≡ nested loops under any stats state" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand =
        let state = ref (seed land 0x3FFFFFFF) in
        fun bound ->
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          !state mod bound
      in
      let db = DB.create () in
      let bb =
        DB.create_table db "bb"
          [ { T.col_name = "bid"; col_type = V.Tint }; { T.col_name = "bv"; col_type = V.Tint } ]
      in
      let dd =
        DB.create_table db "dd"
          [ { T.col_name = "fk"; col_type = V.Tint }; { T.col_name = "x"; col_type = V.Tint } ]
      in
      let ee =
        DB.create_table db "ee"
          [ { T.col_name = "ek"; col_type = V.Tint }; { T.col_name = "z"; col_type = V.Tint } ]
      in
      let n_base = 1 + rand 5 in
      for i = 1 to n_base do
        T.insert_values bb [ V.Int i; V.Int (rand 100) ]
      done;
      let nullable k = if rand 6 = 0 then V.Null else V.Int k in
      for j = 1 to rand 12 do
        T.insert_values dd [ nullable (1 + rand (n_base + 1)); V.Int j ]
      done;
      for j = 1 to rand 8 do
        T.insert_values ee [ nullable (1 + rand (n_base + 1)); V.Int (j * 7) ]
      done;
      if rand 2 = 0 then ignore (T.create_index dd ~name:"dd_fk" ~column:"fk");
      if rand 2 = 0 then ignore (T.create_index ee ~name:"ee_ek" ~column:"ek");
      List.iter (fun t -> if rand 2 = 0 then ignore (AN.table db t)) [ "bb"; "dd"; "ee" ];
      if rand 2 = 0 then
        for _ = 1 to rand 4 do
          T.insert_values dd [ nullable (1 + rand (n_base + 1)); V.Int (100 + rand 50) ]
        done;
      let scan t a = A.Seq_scan { table = t; alias = a } in
      let cross o i = A.Nested_loop { outer = o; inner = i; join_cond = None } in
      (* 1. three-relation join region with a local range conjunct *)
      let conj =
        A.(
          qcol "dd" "fk" =. qcol "bb" "bid"
          &&. (qcol "ee" "ek" =. qcol "bb" "bid")
          &&. (qcol "dd" "x" >. const_int (rand 60)))
      in
      let region = A.Filter (conj, cross (cross (scan "bb" "bb") (scan "dd" "dd")) (scan "ee" "ee")) in
      let jnorm p =
        E.run db p
        |> List.map (fun r ->
               ( V.to_int (List.assoc "bid" r),
                 V.to_int (List.assoc "x" r),
                 V.to_int (List.assoc "z" r) ))
        |> List.sort compare
      in
      let opt = O.optimize_deep db region in
      let join_ok = jnorm region = jnorm opt in
      (* both executors agree operator-by-operator on the optimised plan *)
      let _, cstats = E.run_analyzed db opt in
      let _, istats = Ref_exec.run_analyzed db opt in
      let exec_ok = Xdb_rel.Stats.rows_signature cstats = Xdb_rel.Stats.rows_signature istats in
      (* 2. EXISTS / NOT EXISTS over a correlated scan with NULL keys *)
      let exists_cond =
        A.Exists (A.Filter (A.(qcol "s" "fk" =. qcol "bb" "bid"), scan "dd" "s"))
      in
      let sel cond = A.Filter (cond, scan "bb" "bb") in
      let bnorm p =
        E.run db p |> List.map (fun r -> V.to_int (List.assoc "bid" r)) |> List.sort compare
      in
      let semi_ok =
        bnorm (sel exists_cond) = bnorm (O.optimize_deep db (sel exists_cond))
        && bnorm (sel (A.Not exists_cond)) = bnorm (O.optimize_deep db (sel (A.Not exists_cond)))
      in
      join_ok && exec_ok && semi_ok)

(* property: for random publishing views, random data, and a random subset
   of ANALYZEd tables — including stats gone stale through later inserts —
   cost-based optimize_deep returns exactly the unoptimized plan's rows *)
let prop_optimize_equivalence =
  QCheck.Test.make ~name:"optimize_deep ≡ unoptimized under any stats state" ~count:40
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand =
        let state = ref (seed land 0x3FFFFFFF) in
        fun bound ->
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          !state mod bound
      in
      let db = DB.create () in
      let base =
        DB.create_table db "base"
          [
            { T.col_name = "bid"; col_type = V.Tint };
            { T.col_name = "a"; col_type = V.Tstr };
            { T.col_name = "b"; col_type = V.Tint };
          ]
      in
      let detail =
        DB.create_table db "detail"
          [
            { T.col_name = "fk"; col_type = V.Tint };
            { T.col_name = "x"; col_type = V.Tint };
            { T.col_name = "y"; col_type = V.Tstr };
          ]
      in
      (* keep x unique so ordering ties cannot mask plan differences *)
      let next_x = ref 0 in
      let fresh_x () =
        incr next_x;
        V.Int ((!next_x * 10) + rand 10)
      in
      let n_base = 1 + rand 4 in
      let add_detail fk = T.insert_values detail [ V.Int fk; fresh_x (); V.Str (Printf.sprintf "y%d" (rand 10)) ] in
      for i = 1 to n_base do
        T.insert_values base [ V.Int i; V.Str (Printf.sprintf "s%d" (rand 100)); V.Int (rand 1000) ];
        for _ = 1 to rand 6 do
          add_detail i
        done
      done;
      if rand 2 = 0 then ignore (T.create_index detail ~name:"d_fk" ~column:"fk");
      if rand 2 = 0 then ignore (T.create_index detail ~name:"d_x" ~column:"x");
      (* ANALYZE a random subset: none, one, or both tables *)
      List.iter (fun t -> if rand 2 = 0 then ignore (AN.table db t)) [ "base"; "detail" ];
      (* optionally let the stats go stale *)
      if rand 2 = 0 then
        for _ = 1 to rand 5 do
          add_detail (1 + rand n_base)
        done;
      (* 1. publishing view with a correlated detail level, through the
         XQuery→SQL/XML rewrite (exercises optimize_deep on subqueries) *)
      let leaf name c = P.Elem { name; attrs = []; content = [ P.Text_col c ] } in
      let detail_agg =
        P.Agg
          {
            table = "detail";
            alias = "detail";
            correlate = [ ("fk", "bid") ];
            where = (if rand 2 = 0 then Some A.(col "x" >. const_int (rand 1000)) else None);
            order_by = [ ("x", A.Asc) ];
            body = P.Elem { name = "d"; attrs = []; content = [ leaf "x" "x"; leaf "y" "y" ] };
          }
      in
      let view =
        {
          P.view_name = "rv";
          base_table = "base";
          base_alias = "base";
          column = "doc";
          spec =
            P.Elem
              {
                name = "root";
                attrs = [];
                content = (leaf "b" "b" :: (if rand 2 = 0 then [ detail_agg ] else []));
              };
        }
      in
      let vplan =
        Xdb_xquery.Sql_rewrite.rewrite_view_plan db view (Xdb_xquery.Parser.parse_prog "./root")
      in
      let strings p = List.map (fun r -> V.to_string (List.assoc "result" r)) (E.run db p) in
      let view_ok = strings vplan = strings (O.optimize_deep db vplan) in
      (* 2. random conjunctive filter over detail (index selection path) *)
      let conj =
        List.init
          (1 + rand 3)
          (fun _ ->
            let c = rand (!next_x * 10) in
            match rand 4 with
            | 0 -> A.(col "x" >. const_int c)
            | 1 -> A.(col "x" <. const_int c)
            | 2 -> A.(col "x" =. const_int c)
            | _ -> A.(col "fk" =. const_int (1 + rand n_base)))
      in
      let fplan = A.Filter (O.conjoin conj, A.Seq_scan { table = "detail"; alias = "t" }) in
      let sorted p = List.sort compare (E.run db p) in
      let filter_ok = sorted fplan = sorted (O.optimize_deep db fplan) in
      (* 3. equi-join base ⋈ detail (index-NL and reorder paths; disjoint
         column names, so both orders produce the same bindings) *)
      let jplan =
        A.Nested_loop
          {
            outer = A.Seq_scan { table = "base"; alias = "bb" };
            inner = A.Seq_scan { table = "detail"; alias = "dd" };
            join_cond = Some A.(qcol "dd" "fk" =. qcol "bb" "bid");
          }
      in
      let jnorm p =
        E.run db p
        |> List.map (fun r ->
               ( V.to_int (List.assoc "bid" r),
                 V.to_int (List.assoc "x" r),
                 V.to_string (List.assoc "y" r),
                 V.to_int (List.assoc "b" r) ))
        |> List.sort compare
      in
      let join_ok = jnorm jplan = jnorm (O.optimize_deep db jplan) in
      view_ok && filter_ok && join_ok)

let test_optimizer_preserves_results () =
  let db = setup_db () in
  let plan =
    A.Project
      ( [ (A.col "ename", "ename") ],
        A.Filter (A.(col "sal" >. const_int 1500), A.Seq_scan { table = "emp"; alias = "e" }) )
  in
  let before = E.run db plan |> List.map (fun r -> List.assoc "ename" r) |> List.sort compare in
  let after =
    E.run db (O.optimize_deep db plan) |> List.map (fun r -> List.assoc "ename" r) |> List.sort compare
  in
  check cb "same result set" true (before = after)

(* ------------------------------------------------------------------ *)
(* publishing                                                          *)
(* ------------------------------------------------------------------ *)

let dept_view =
  {
    P.view_name = "dept_emp";
    base_table = "dept";
    base_alias = "dept";
    column = "dept_content";
    spec =
      P.Elem
        {
          name = "dept";
          attrs = [];
          content =
            [
              P.Elem { name = "dname"; attrs = []; content = [ P.Text_col "dname" ] };
              P.Elem
                {
                  name = "employees";
                  attrs = [];
                  content =
                    [
                      P.Agg
                        {
                          table = "emp";
                          alias = "emp";
                          correlate = [ ("deptno", "deptno") ];
                          where = None;
                          order_by = [ ("empno", A.Asc) ];
                          body =
                            P.Elem
                              {
                                name = "emp";
                                attrs = [];
                                content =
                                  [
                                    P.Elem { name = "ename"; attrs = []; content = [ P.Text_col "ename" ] };
                                    P.Elem { name = "sal"; attrs = []; content = [ P.Text_col "sal" ] };
                                  ];
                              };
                        };
                    ];
                };
            ];
        };
  }

let test_materialize () =
  let db = setup_db () in
  let docs = P.materialize db dept_view in
  check ci "one doc per dept row" 2 (List.length docs);
  let first = Xdb_xml.Serializer.to_string (List.hd docs) in
  check cs "paper Table 4 shape"
    "<dept><dname>ACCOUNTING</dname><employees><emp><ename>CLARK</ename><sal>2450</sal></emp><emp><ename>MILLER</ename><sal>1300</sal></emp></employees></dept>"
    first

let test_view_schema () =
  let db = setup_db () in
  ignore db;
  let schema = P.to_schema dept_view in
  check cs "root" "dept" schema.Xdb_schema.Types.root;
  let employees = Xdb_schema.Types.find_exn schema "employees" in
  check cs "emp cardinality many" "many"
    (Xdb_schema.Types.occurs_name (List.hd employees.Xdb_schema.Types.particles).Xdb_schema.Types.occurs);
  let dept = Xdb_schema.Types.find_exn schema "dept" in
  check cs "dname cardinality one" "one"
    (Xdb_schema.Types.occurs_name (List.hd dept.Xdb_schema.Types.particles).Xdb_schema.Types.occurs)

let test_spec_navigation () =
  (match P.navigate dept_view.P.spec "employees" with
  | Some (P.Elem { name = "employees"; _ } as employees) -> (
      match P.navigate employees "emp" with
      | Some (P.Agg _ as emp) -> (
          match P.navigate emp "sal" with
          | Some sal -> check cb "sal scalar column" true (P.scalar_column sal = Some "sal")
          | None -> Alcotest.fail "sal not found")
      | _ -> Alcotest.fail "emp should be an Agg")
  | _ -> Alcotest.fail "employees not found");
  check cb "missing child" true (P.navigate dept_view.P.spec "ghost" = None)

let test_materialize_index_probe_consistency () =
  (* adding an index on the correlation column must not change results *)
  let db = setup_db () in
  let without = List.map Xdb_xml.Serializer.to_string (P.materialize db dept_view) in
  let emp = DB.table db "emp" in
  ignore (T.create_index emp ~name:"emp_deptno" ~column:"deptno");
  let with_idx = List.map Xdb_xml.Serializer.to_string (P.materialize db dept_view) in
  check cb "index-probe materialisation identical" true (without = with_idx)

let test_materialize_serialized () =
  (* streaming the spec straight into a buffer matches tree-then-serialize *)
  let db = setup_db () in
  let dom = List.map Xdb_xml.Serializer.to_string (P.materialize db dept_view) in
  let streamed = P.materialize_serialized db dept_view in
  check Alcotest.(list string) "streamed = DOM" dom streamed

(* property: random publishing specs whose expression sites the spec
   walker compiles — attribute values, computed text ([Text_expr]), an
   [Agg] WHERE, NULL results among them (the attribute or text vanishes)
   — publish the same bytes streamed, as trees then serialized, and
   through the view's SQL/XML rewrite plan on the executor *)
let prop_publish_spec_sites =
  QCheck.Test.make ~name:"publish spec sites: streamed = DOM = rewrite plan" ~count:80
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rand =
        let state = ref (seed land 0x3FFFFFFF) in
        fun bound ->
          state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
          !state mod bound
      in
      let some l = List.filter (fun _ -> rand 2 = 0) l in
      let pick l = List.nth l (rand (List.length l)) in
      let db = DB.create () in
      let base =
        DB.create_table db "base"
          [
            { T.col_name = "bid"; col_type = V.Tint };
            { T.col_name = "a"; col_type = V.Tstr };
            { T.col_name = "b"; col_type = V.Tint };
          ]
      in
      let detail =
        DB.create_table db "detail"
          [
            { T.col_name = "fk"; col_type = V.Tint };
            { T.col_name = "x"; col_type = V.Tint };
            { T.col_name = "y"; col_type = V.Tstr };
          ]
      in
      let str () = pick [ V.Str "s"; V.Str "a&b"; V.Str "q\"<t>"; V.Str ""; V.Null ] in
      let num () = if rand 4 = 0 then V.Null else V.Int (rand 1000) in
      for i = 1 to 1 + rand 4 do
        T.insert_values base [ V.Int i; str (); num () ];
        for j = 1 to rand 5 do
          T.insert_values detail [ V.Int i; V.Int ((10 * j) + rand 10); str () ]
        done
      done;
      if rand 2 = 0 then ignore (T.create_index detail ~name:"d_fk" ~column:"fk");
      (* scalar expressions over the base row; each is NULL on some rows *)
      let base_exprs =
        [
          A.col "bid";
          A.qcol "base" "a";
          A.col "b";
          A.Binop (A.Add, A.col "b", A.const_int 1);
          A.Binop (A.Concat, A.col "a", A.const_str "-");
          A.Case ([ (A.(col "b" >. const_int 500), A.const_str "big") ], None);
          A.Fn ("upper", [ A.col "a" ]);
        ]
      in
      (* the detail row's expressions, which may read the base row too *)
      let detail_exprs =
        [
          A.col "x";
          A.qcol "detail" "y";
          A.Binop (A.Mul, A.col "x", A.col "b");
          A.Fn ("coalesce", [ A.col "y"; A.const_str "none" ]);
          A.Case ([ (A.Is_null (A.col "y"), A.col "bid") ], Some (A.col "y"));
        ]
      in
      let attrs exprs = List.mapi (fun i e -> (Printf.sprintf "t%d" i, e)) (some exprs) in
      let texts exprs = List.map (fun e -> P.Text_expr e) (some exprs) in
      let where =
        pick
          [
            None;
            Some A.(col "x" >. const_int (rand 50));
            Some (A.Not (A.Is_null (A.col "y")));
            Some A.(col "x" >. col "b");
          ]
      in
      let detail_agg =
        P.Agg
          {
            table = "detail";
            alias = "detail";
            correlate = [ ("fk", "bid") ];
            where;
            order_by = [ ("x", pick [ A.Asc; A.Desc ]) ];
            body =
              P.Elem
                {
                  name = "d";
                  attrs = attrs detail_exprs;
                  content = P.Text_col "x" :: texts detail_exprs;
                };
          }
      in
      let view =
        {
          P.view_name = "sv";
          base_table = "base";
          base_alias = "base";
          column = "doc";
          spec =
            P.Elem
              {
                name = "root";
                attrs = attrs base_exprs;
                content =
                  (P.Text_const "t" :: texts base_exprs)
                  @ [ P.Elem { name = "e"; attrs = attrs base_exprs; content = texts base_exprs } ]
                  @ if rand 4 = 0 then [] else [ detail_agg ];
              };
        }
      in
      let streamed = P.materialize_serialized db view in
      let dom =
        List.map
          (fun d -> Xdb_xml.Serializer.node_list_to_string d.X.children)
          (P.materialize db view)
      in
      let plan =
        Xdb_xquery.Sql_rewrite.rewrite_view_plan db view (Xdb_xquery.Parser.parse_prog "./root")
      in
      let rewritten = List.map (fun r -> V.to_string (List.assoc "result" r)) (E.run db plan) in
      (streamed = dom
      || QCheck.Test.fail_reportf "streamed %s\nDOM %s" (String.concat "|" streamed)
           (String.concat "|" dom))
      && (rewritten = streamed
         || QCheck.Test.fail_reportf "rewrite plan %s\nstreamed %s" (String.concat "|" rewritten)
              (String.concat "|" streamed)))

let test_catalog_register () =
  let db = setup_db () in
  let cat = P.create_catalog db in
  P.register cat dept_view;
  check cb "registered view found" true (P.find_view cat "dept_emp" <> None);
  check cb "unknown view absent" true (P.find_view cat "nope" = None);
  (* duplicate names are rejected, not silently shadowed *)
  (match P.register cat { dept_view with P.column = "other" } with
  | exception P.Publish_error _ -> ()
  | () -> Alcotest.fail "duplicate registration must raise Publish_error");
  (* the rejected duplicate neither replaced nor doubled the entry *)
  check cs "original view intact" "dept_content"
    (Option.get (P.find_view cat "dept_emp")).P.column;
  check ci "one view listed" 1 (List.length (P.catalog_views cat));
  let second = { dept_view with P.view_name = "dept_emp2" } in
  P.register cat second;
  check Alcotest.(list string) "registration order preserved" [ "dept_emp"; "dept_emp2" ]
    (List.map (fun v -> v.P.view_name) (P.catalog_views cat))

let test_clob_roundtrip () =
  let db = setup_db () in
  let docs =
    [ Xdb_xml.Parser.parse "<a><b>1</b></a>"; Xdb_xml.Parser.parse "<c x=\"y\">2</c>" ]
  in
  ignore (Xdb_rel.Clob.store db ~table:"docs" docs);
  let back = Xdb_rel.Clob.load db ~table:"docs" in
  check ci "two docs" 2 (List.length back);
  check cb "roundtrip equal" true
    (List.for_all2 (fun a b -> X.deep_equal a b) docs back);
  (match Xdb_rel.Clob.load_one db ~table:"docs" ~docid:2 with
  | Some d -> check cs "point fetch" "<c x=\"y\">2</c>"
      (Xdb_xml.Serializer.to_string (Xdb_xml.Parser.document_element d))
  | None -> Alcotest.fail "doc 2 missing");
  check cb "missing doc" true (Xdb_rel.Clob.load_one db ~table:"docs" ~docid:99 = None)

let test_pathindex () =
  let doc1 = Xdb_xml.Parser.parse "<t><r><id>1</id><v a=\"x\">hello</v></r></t>" in
  let doc2 = Xdb_xml.Parser.parse "<t><r><id>2</id><v a=\"y\">hello</v></r></t>" in
  let idx = Xdb_rel.Pathindex.build [ (1, doc1); (2, doc2) ] in
  check Alcotest.(list int) "value lookup" [ 1 ]
    (Xdb_rel.Pathindex.lookup idx ~path:"/t/r/id" ~value:"1");
  check Alcotest.(list int) "shared value" [ 1; 2 ]
    (Xdb_rel.Pathindex.lookup idx ~path:"/t/r/v" ~value:"hello");
  check Alcotest.(list int) "attribute path" [ 2 ]
    (Xdb_rel.Pathindex.lookup idx ~path:"/t/r/v/@a" ~value:"y");
  check Alcotest.(list int) "no match" []
    (Xdb_rel.Pathindex.lookup idx ~path:"/t/r/id" ~value:"42");
  let n_docs, n_entries = Xdb_rel.Pathindex.stats idx in
  check ci "docs indexed" 2 n_docs;
  check cb "entries counted" true (n_entries >= 6)

(* indexing the same leaf of the same document twice is deduplicated and
   must not inflate the entry counter (regression: [add_entry] counted
   before checking) *)
let test_pathindex_dedup () =
  let doc = Xdb_xml.Parser.parse "<t><id>1</id></t>" in
  let idx = Xdb_rel.Pathindex.create () in
  Xdb_rel.Pathindex.index idx 1 doc;
  let _, n1 = Xdb_rel.Pathindex.stats idx in
  Xdb_rel.Pathindex.index idx 1 doc;
  let _, n2 = Xdb_rel.Pathindex.stats idx in
  check ci "re-indexing the same doc adds no entries" n1 n2;
  check
    Alcotest.(list int)
    "no duplicate docids" [ 1 ]
    (Xdb_rel.Pathindex.lookup idx ~path:"/t/id" ~value:"1");
  Xdb_rel.Pathindex.index idx 2 doc;
  let _, n3 = Xdb_rel.Pathindex.stats idx in
  check ci "a second document still counts" (2 * n1) n3;
  check
    Alcotest.(list int)
    "both docs found" [ 1; 2 ]
    (Xdb_rel.Pathindex.lookup idx ~path:"/t/id" ~value:"1")

(* ------------------------------------------------------------------ *)
(* interval-encoded shredding                                          *)
(* ------------------------------------------------------------------ *)

module SH = Xdb_rel.Shred
module XB = Xdb_xml.Builder

let test_shred_roundtrip () =
  let t = SH.create () in
  let doc =
    Xdb_xml.Parser.parse "<a b=\"1\"><c>x<d/>y</c><?pi data?><!--n--><e>z</e></a>"
  in
  let id = SH.shred t doc in
  check ci "docids are 1-based" 1 id;
  check cb "reconstruct ∘ shred = id" true (X.deep_equal doc (SH.reconstruct t id));
  let doc2 = Xdb_xml.Parser.parse "<f><g/></f>" in
  let id2 = SH.shred t doc2 in
  SH.check_invariants t;
  check cb "second doc roundtrips too" true (X.deep_equal doc2 (SH.reconstruct t id2));
  let n_docs, n_rows = SH.stats t in
  check ci "two docs" 2 n_docs;
  (* 11 nodes (incl. document + attribute rows) + 3 nodes *)
  check ci "one row per node" 14 n_rows;
  check Alcotest.(list int) "doc ids" [ 1; 2 ] (SH.doc_ids t);
  check ci "namespace axis is statically empty" 0
    (List.length (SH.select t ~docid:id "//a/namespace::node()"));
  check ci "without a DOM fallback" 0 (SH.counters t).SH.dom_fallbacks

(* queries covering every supported axis and predicate form, all
   answered relationally ([contains]/[starts-with] included) *)
let diff_exprs =
  [
    "/a"; "//*"; "//node()"; "//text()"; "//a"; "//a/b"; "//a/@id"; "//@id";
    "//a[@id]"; "//a[@id='1']"; "//*[b]"; "//a[2]"; "//a[last()]"; "//a[position()>1]";
    "//b/ancestor::*"; "//b/ancestor::*[1]"; "//b/ancestor-or-self::*[2]";
    "//a/descendant::text()"; "//a/descendant-or-self::*"; "//a/parent::*";
    "//a/following-sibling::*"; "//a/preceding-sibling::*[1]"; "//b/following::text()";
    "//b/preceding::*"; "//a[.='7']"; "//a[b='7']"; "//a[not(@id)]"; "//*[count(b)>1]";
    "//a[contains(.,'1')]"; "//a[starts-with(name(),'a')]";
  ]

(* expressions that are not location paths leave the relational subset:
   [Shred.select] answers them over a reconstructed tree and maps the
   nodes back through their pre stamps (its DOM fallback) *)
let fallback_exprs = [ "//*[contains(.,'1')] | //@id"; "//b | //a/text()"; "(//a)[2]" ]

(* each query's answer is byte-identical to the DOM interpreter's; with
   [fallback], each took the DOM fallback exactly when it says so *)
let shred_matches_dom ?fallback doc exprs =
  let t = SH.create () in
  let docid = SH.shred t doc in
  SH.check_invariants t;
  let ctx = Xdb_xpath.Eval.make_context doc in
  List.for_all
    (fun q ->
      let before = (SH.counters t).SH.dom_fallbacks in
      let shredded = SH.serialize t ~docid (SH.select t ~docid q) in
      let fell_back = (SH.counters t).SH.dom_fallbacks > before in
      let dom = SH.serialize_dom (Xdb_xpath.Eval.select ctx q) in
      (shredded = dom
      || QCheck.Test.fail_reportf "query %s: shredded %s / dom %s" q
           (String.concat "|" shredded) (String.concat "|" dom))
      && (Option.fold ~none:true ~some:(( = ) fell_back) fallback
         || QCheck.Test.fail_reportf "query %s: DOM fallback %b" q fell_back))
    exprs

let gen_doc : X.node QCheck.Gen.t =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c" ] in
  let rec go depth =
    if depth <= 0 then map (fun n -> XB.text (string_of_int n)) (int_bound 20)
    else
      name >>= fun nm ->
      int_bound 3 >>= fun n_kids ->
      list_repeat n_kids (go (depth - 1)) >>= fun kids ->
      bool >>= fun with_attr ->
      (if with_attr then map (fun v -> [ ("id", string_of_int v) ]) (int_bound 5)
       else return [])
      >>= fun attrs -> return (XB.elem ~attrs nm kids)
  in
  map XB.document (go 3)

(* every document is stored after another one, so its rows never start
   the store *)
let prop_shred_roundtrip =
  QCheck.Test.make ~name:"reconstruct ∘ shred = id (random)" ~count:50
    (QCheck.make
       QCheck.Gen.(pair gen_doc gen_doc)
       ~print:(fun (a, b) -> Xdb_xml.Serializer.to_string a ^ " then " ^ Xdb_xml.Serializer.to_string b))
    (fun (first, doc) ->
      let t = SH.create () in
      let id1 = SH.shred t first in
      let id2 = SH.shred t doc in
      SH.check_invariants t;
      X.deep_equal doc (SH.reconstruct t id2) && X.deep_equal first (SH.reconstruct t id1))

let prop_shred_differential =
  QCheck.Test.make ~name:"shredded ≡ DOM interpreter over random documents" ~count:25
    (QCheck.make gen_doc ~print:Xdb_xml.Serializer.to_string)
    (fun doc ->
      shred_matches_dom ~fallback:false doc diff_exprs
      && shred_matches_dom ~fallback:true doc fallback_exprs)

(* differential over every axis in the batch subset: the set-at-a-time
   evaluator and the DOM interpreter must agree byte-for-byte, including
   on each sort-merge value-predicate form *)
let batch_axis_exprs =
  [
    "//a/self::*"; "//b/self::node()";
    "//a/child::*"; "//a/child::b"; "//a/child::text()";
    "//a/attribute::id"; "//a/attribute::*";
    "//b/parent::*"; "//b/parent::a";
    "//a/descendant::*"; "//a/descendant::b"; "//a/descendant::text()";
    "//a/descendant-or-self::*"; "//a/descendant-or-self::b";
    "//b/ancestor::*"; "//b/ancestor::a";
    "//b/ancestor-or-self::*"; "//b/ancestor-or-self::node()";
    (* sort-merge value predicates over each classified form *)
    "//a[.='7']"; "//a[b]"; "//a[b='7']"; "//a[@id]"; "//a[@id='1']";
    "//a[not(@id)]"; "//a/b[c='2']"; "//a[@id>2]"; "//a[b!='7']";
  ]

let prop_shred_batch_differential =
  QCheck.Test.make ~name:"batched ≡ DOM over random documents (batch axes)" ~count:25
    (QCheck.make gen_doc ~print:Xdb_xml.Serializer.to_string)
    (fun doc -> shred_matches_dom doc batch_axis_exprs)

(* positional predicates take the per-context walk on every axis; the
   attribute-context steps cover parent links from an attribute and the
   sibling axes, empty from an attribute without a DOM fallback *)
let positional_exprs =
  List.concat_map
    (fun axis ->
      List.concat_map
        (fun pred ->
          [ Printf.sprintf "//b/%s::node()%s" axis pred; Printf.sprintf "//a/%s::*%s" axis pred ])
        [ "[1]"; "[last()]"; "[position()>1]" ])
    [
      "child"; "parent"; "descendant"; "ancestor"; "ancestor-or-self"; "following";
      "following-sibling"; "preceding"; "preceding-sibling";
    ]
  @ [
      "//@id/parent::*"; "//@id/ancestor::*[1]"; "//@id/following-sibling::*";
      "//@id/preceding-sibling::*[1]";
    ]

let prop_shred_positional_differential =
  QCheck.Test.make ~name:"per-context walks ≡ DOM over random documents" ~count:25
    (QCheck.make gen_doc ~print:Xdb_xml.Serializer.to_string)
    (fun doc -> shred_matches_dom ~fallback:false doc positional_exprs)

(* following/preceding from an attribute context: the owner's
   descendants follow the attribute, the owner does not precede it
   (XPath 1.0 §2.2/§5.1) — the same answers the DOM interpreter gives,
   read off the rows without reconstructing the document *)
let test_shred_attribute_following_preceding () =
  let t = SH.create () in
  let docid = SH.shred t (Xdb_xml.Parser.parse {|<r><p/><a id="1"><b/><c/></a><d/></r>|}) in
  SH.check_invariants t;
  let names q = List.map (SH.local (SH.doc t docid)) (SH.select t ~docid q) in
  check Alcotest.(list string) "//@id/following::*" [ "b"; "c"; "d" ] (names "//@id/following::*");
  check Alcotest.(list string) "//@id/preceding::*" [ "p" ] (names "//@id/preceding::*");
  check ci "no DOM fallback" 0 (SH.counters t).SH.dom_fallbacks

(* the axis oracle: every axis but namespace, from every node of a
   random document (attributes included), straight from its definition
   over parent links and document order alone — ancestors are the
   parent chain, descendants its inverse, following and preceding what
   document order leaves of the rest — compared in document order with
   the DOM interpreter's [Eval.axis_nodes] and with [Shred.axis_step],
   for node().  It reads nothing of the shredded encoding. *)
let gen_axis_doc : X.node QCheck.Gen.t =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun n -> XB.text (string_of_int n)) (int_bound 9);
        map (fun () -> XB.comment "c") unit;
        map (fun () -> XB.pi "p" "d") unit;
      ]
  in
  let rec element depth =
    oneofl [ "a"; "b" ] >>= fun nm ->
    int_bound (if depth <= 0 then 0 else 3) >>= fun n_kids ->
    list_repeat n_kids (frequency [ (1, leaf); (3, element (depth - 1)) ]) >>= fun kids ->
    oneofl [ []; [ ("id", "1") ]; [ ("id", "2"); ("k", "v") ] ] >>= fun attrs ->
    return (XB.elem ~attrs nm kids)
  in
  map XB.document (element 3)

let oracle_axes =
  Xdb_xpath.Ast.
    [
      Self; Child; Attribute; Parent; Descendant; Descendant_or_self; Ancestor;
      Ancestor_or_self; Following; Preceding; Following_sibling; Preceding_sibling;
    ]

(* what the oracle reads of a node, by its index in document order: its
   parent's index (-1 on the document node) and whether it is an
   attribute *)
type node_view = { v_parent : int; v_attr : bool }

let region_axis views (axis : Xdb_xpath.Ast.axis) c r =
  let rec below a n = match views.(n).v_parent with -1 -> false | p -> p = a || below a p in
  let vc = views.(c) and vr = views.(r) in
  let descendant = (not vr.v_attr) && below c r and ancestor = below r c in
  let sibling = (not vc.v_attr) && (not vr.v_attr) && vc.v_parent >= 0 && vr.v_parent = vc.v_parent in
  match axis with
  | Self -> r = c
  | Child -> (not vr.v_attr) && vr.v_parent = c
  | Attribute -> vr.v_attr && vr.v_parent = c
  | Parent -> r = vc.v_parent
  | Descendant -> descendant
  | Descendant_or_self -> r = c || descendant
  | Ancestor -> ancestor
  | Ancestor_or_self -> r = c || ancestor
  | Following -> (not vr.v_attr) && r > c && not descendant
  | Preceding -> (not vr.v_attr) && r < c && not ancestor
  | Following_sibling -> sibling && r > c
  | Preceding_sibling -> sibling && r < c
  | Namespace -> false

let prop_axis_oracle =
  QCheck.Test.make ~name:"axis oracle: region conditions = DOM = shredded, every context" ~count:40
    (QCheck.make gen_axis_doc ~print:Xdb_xml.Serializer.to_string)
    (fun doc ->
      let t = SH.create () in
      let docid = SH.shred t doc in
      SH.check_invariants t;
      let step axis =
        { Xdb_xpath.Ast.axis; test = Xdb_xpath.Ast.Node_type_test Xdb_xpath.Ast.Any_node; predicates = [] }
      in
      (* row 0 is the document row *)
      let nodes = SH.axis_step t ~docid [ 0 ] (step Descendant_or_self) in
      let rows = List.sort compare (nodes @ SH.axis_step t ~docid nodes (step Attribute)) in
      (* the DOM nodes in document order: each node, its attributes, its children *)
      let rec dom_order (n : X.node) =
        n :: List.concat_map dom_order (n.X.attributes @ n.X.children)
      in
      let dom = Array.of_list (dom_order doc) in
      let index_of_dom n =
        let rec find i = if dom.(i) == n then i else find (i + 1) in
        find 0
      in
      let views =
        Array.map
          (fun (n : X.node) ->
            {
              v_parent = (match n.X.parent with None -> -1 | Some p -> index_of_dom p);
              v_attr = (match n.X.kind with X.Attribute _ -> true | _ -> false);
            })
          dom
      in
      let rows_i = Array.of_list rows in
      let index_of_row r =
        let rec find i = if rows_i.(i) = r then i else find (i + 1) in
        find 0
      in
      let sorted l = List.sort compare l in
      (Array.length dom = Array.length rows_i
      || QCheck.Test.fail_reportf "%d DOM nodes, %d rows" (Array.length dom) (Array.length rows_i))
      && List.for_all
           (fun axis ->
             let name = Xdb_xpath.Ast.axis_name axis in
             List.for_all
               (fun i ->
                 let oracle =
                   List.filter (region_axis views axis i) (List.init (Array.length dom) Fun.id)
                 in
                 let eval = sorted (List.map index_of_dom (Xdb_xpath.Eval.axis_nodes axis dom.(i))) in
                 let shred = sorted (List.map index_of_row (SH.axis_step t ~docid [ rows_i.(i) ] (step axis))) in
                 let show l = String.concat "," (List.map string_of_int l) in
                 (eval = oracle
                 || QCheck.Test.fail_reportf "%s from node %d: oracle [%s], DOM [%s]" name i
                      (show oracle) (show eval))
                 && (shred = oracle
                    || QCheck.Test.fail_reportf "%s from node %d: oracle [%s], shredded [%s]" name i
                         (show oracle) (show shred)))
               (List.init (Array.length dom) Fun.id))
           oracle_axes
      && (SH.counters t).SH.dom_fallbacks = 0)

(* following/preceding from each document's edge nodes: the rows of the
   other document stored beside it never leak into the answer *)

let test_shred_two_documents () =
  let docs =
    List.map Xdb_xml.Parser.parse
      [ "<r><a x=\"1\">t</a><b><c/></b></r>"; "<s><d/>u<e><f y=\"2\"/></e></s>" ]
  in
  let t = SH.create () in
  let ids = List.map (SH.shred t) docs in
  SH.check_invariants t;
  List.iter2
    (fun docid doc ->
      let ctx = Xdb_xpath.Eval.make_context doc in
      List.iter
        (fun q ->
          let rows = SH.select t ~docid q in
          check cb (q ^ ": own document only") true
            (List.for_all (fun r -> r >= 0 && r < SH.rows (SH.doc t docid)) rows);
          check Alcotest.(list string) q
            (SH.serialize_dom (Xdb_xpath.Eval.select ctx q))
            (SH.serialize t ~docid rows))
        [
          "/following::node()"; "/preceding::node()"; "/*/following::node()";
          "/*/preceding::node()"; "/*/node()[1]/following::node()";
          "//node()[not(following::node())]/preceding::node()";
          "//node()[not(following::node())]/preceding::*[1]";
          "//node()[not(preceding::node())]/following::node()[last()]";
        ];
      check cb "last node has preceding rows" true
        (SH.select t ~docid "//node()[not(following::node())]/preceding::node()" <> []))
    ids docs;
  check ci "no DOM fallback" 0 (SH.counters t).SH.dom_fallbacks;
  (* a top-level union is outside the relational subset: the DOM
     fallback's nodes map back to the second document's rows through
     their pre stamps *)
  let q = "//*[contains(.,'u')] | //@y" in
  let docid = List.nth ids 1 in
  let rows = SH.select t ~docid q in
  check cb "fallback: own document only" true
    (rows <> [] && List.for_all (fun r -> r >= 0 && r < SH.rows (SH.doc t docid)) rows);
  check Alcotest.(list string) q
    (SH.serialize_dom (Xdb_xpath.Eval.select (Xdb_xpath.Eval.make_context (List.nth docs 1)) q))
    (SH.serialize t ~docid rows);
  check ci "one DOM fallback" 1 (SH.counters t).SH.dom_fallbacks

(* names are plain postings keys: no bound on how many a store holds *)
let test_shred_many_names () =
  let kids = List.init 5000 (fun i -> XB.elem (Printf.sprintf "n%d" i) []) in
  let doc = XB.document (XB.elem "r" kids) in
  let t = SH.create () in
  let docid = SH.shred t doc in
  SH.check_invariants t;
  let ctx = Xdb_xpath.Eval.make_context doc in
  List.iter
    (fun (q, expected) ->
      let shredded = SH.serialize t ~docid (SH.select t ~docid q) in
      check Alcotest.(list string) (q ^ " = DOM") (SH.serialize_dom (Xdb_xpath.Eval.select ctx q)) shredded;
      check Alcotest.(list string) q expected shredded)
    [ ("//n4999", [ "<n4999/>" ]); ("/r/n0/following-sibling::*[1]", [ "<n1/>" ]) ]

let test_shred_differential_xsltmark () =
  let doc = Xdb_xsltmark.Data.records_doc 40 in
  check cb "records doc: all queries byte-identical" true
    (shred_matches_dom doc
       [
         "//row"; "//row/id"; "//row[3]"; "//row[id]"; "//row/@*"; "//table/row[last()]";
         "//id/ancestor::row"; "//id/ancestor::*[1]"; "//row[id='5']"; "//row[value>500]";
         "//row/category/preceding-sibling::*[1]"; "//name/following-sibling::value";
         "//row[position()=2]/name"; "//category[.='A']";
       ]);
  let t = SH.create () in
  let docid = SH.shred t doc in
  SH.check_invariants t;
  ignore (SH.select t ~docid "//row[id]");
  let c = SH.counters t in
  check cb "evaluated batched" true (c.SH.batch_steps > 0);
  check ci "no fallback needed" 0 c.SH.dom_fallbacks;
  (* a positional predicate takes the per-context walk *)
  ignore (SH.select t ~docid "/table/row[id='3']/following-sibling::row[1]/name");
  let c2 = SH.counters t in
  check cb "per-context walks ran" true (c2.SH.rel_steps > c.SH.rel_steps);
  check ci "still no fallback" 0 c2.SH.dom_fallbacks

(* the stored footprint: live heap grown by shredding 400 records into an
   empty store, per stored row (the input document is live before and
   after, so only what the store holds is counted) *)
let test_shred_heap_per_node () =
  let doc = Xdb_xsltmark.Data.records_doc 400 in
  let t = SH.create () in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let live0 = live () in
  ignore (SH.shred t doc);
  let grown = live () - live0 in
  let _, nodes = SH.stats t in
  let per_node = float_of_int (grown * 8) /. float_of_int nodes in
  check cb (Printf.sprintf "%.1f bytes per node <= 30" per_node) true (per_node <= 30.0);
  check cb "the input document is still live" true (X.is_document doc)

(* ------------------------------------------------------------------ *)
(* compiled executor: plan-open resolution, batch boundaries           *)
(* ------------------------------------------------------------------ *)

let expect_compile_error db plan needles =
  match E.compile db plan with
  | exception E.Exec_error m ->
      List.iter
        (fun needle ->
          check cb (Printf.sprintf "error %S mentions %S" m needle) true (contains m needle))
        needles
  | _ -> Alcotest.fail "expected plan-open Exec_error"

let test_compile_unknown_column () =
  let db = setup_db () in
  (* unknown bare column: fails before any row is produced, listing what
     is in scope *)
  expect_compile_error db
    (A.Project ([ (A.col "ghost", "g") ], A.Seq_scan { table = "emp"; alias = "e" }))
    [ "ghost"; "available columns"; "ename" ];
  (* wrong alias on an existing column is just as unresolvable *)
  expect_compile_error db
    (A.Filter (A.(qcol "d" "sal" >. const_int 0), A.Seq_scan { table = "emp"; alias = "e" }))
    [ "d.sal"; "available columns" ];
  (* the compiled executor and the interpreted one agree that the plan is
     bad — the difference is only when: plan-open vs per-row *)
  match
    Ref_exec.run db
      (A.Project ([ (A.col "ghost", "g") ], A.Seq_scan { table = "emp"; alias = "e" }))
  with
  | exception E.Exec_error _ -> ()
  | _ -> Alcotest.fail "interpreted executor must also reject"

let test_compile_ambiguous_output () =
  let db = setup_db () in
  expect_compile_error db
    (A.Project
       ( [ (A.col "sal", "x"); (A.col "ename", "x") ],
         A.Seq_scan { table = "emp"; alias = "e" } ))
    [ "ambiguous"; "x" ];
  expect_compile_error db
    (A.Aggregate
       {
         group_by = [ (A.col "deptno", "n") ];
         aggs = [ (A.Count_star, "n") ];
         input = A.Seq_scan { table = "emp"; alias = "e" };
       })
    [ "ambiguous"; "n" ]

let test_compile_dead_case_branch () =
  let db = setup_db () in
  (* the losing CASE branch never evaluates at runtime, but its column
     references still must resolve at plan-open time *)
  expect_compile_error db
    (A.Project
       ( [
           ( A.Case ([ (A.(const_int 0 >. const_int 1), A.col "ghost") ], Some (A.const_int 7)),
             "c" );
         ],
         A.Seq_scan { table = "emp"; alias = "e" } ))
    [ "ghost"; "available columns" ]

let test_batch_boundaries () =
  (* row counts straddling batch edges: exactly one batch, one short of a
     boundary, one over, and a non-multiple — compiled results must equal
     the interpreted reference row for row *)
  let bs = E.default_batch_size in
  List.iter
    (fun n ->
      let db = DB.create () in
      let t =
        DB.create_table db "nums"
          [ { T.col_name = "k"; col_type = V.Tint }; { T.col_name = "v"; col_type = V.Tint } ]
      in
      for i = 0 to n - 1 do
        T.insert_values t [ V.Int i; V.Int (i * 7 mod 101) ]
      done;
      let plan =
        A.Project
          ( [ (A.col "k", "k"); (A.Binop (A.Add, A.col "v", A.const_int 1), "v1") ],
            A.Filter (A.(col "v" >. const_int 3), A.Seq_scan { table = "nums"; alias = "n" }) )
      in
      check cb
        (Printf.sprintf "compiled = interpreted at %d rows" n)
        true
        (E.run db plan = Ref_exec.run db plan))
    [ 0; 1; bs - 1; bs; bs + 1; (2 * bs) + 2 ]

let test_run_arrays_layout () =
  let db = setup_db () in
  let plan =
    A.Project ([ (A.col "ename", "ename") ], A.Seq_scan { table = "emp"; alias = "e" })
  in
  let layout, rows = E.run_arrays db plan in
  check ci "one slot" 1 (Xdb_rel.Layout.width layout);
  (match Xdb_rel.Layout.slot_opt layout "ename" with
  | Some s ->
      check Alcotest.(list string) "values via slot"
        [ "CLARK"; "MILLER"; "SMITH" ]
        (List.map (fun r -> V.to_string r.(s)) rows)
  | None -> Alcotest.fail "ename must resolve");
  check cb "qualified name absent above projection" true
    (Xdb_rel.Layout.slot_opt layout ~alias:"e" "ename" = None)

(* ORDER BY differential: Sort and XMLAgg(... ORDER BY ...) over heap
   orders that are presorted, reversed, tied, NULL-keyed and mixed
   Int/Float/Str, one or two keys, ASC/DESC — the compiled executor
   (which skips the sort for input already in order) must return what the
   interpreted one (which always sorts) returns, and both must report the
   same ordering strategy *)
let test_ordering_differential () =
  let shapes =
    [
      ("presorted", fun i _ -> (V.Int i, V.Int (i mod 3)));
      ("reversed", fun i n -> (V.Int (n - i), V.Int (i mod 3)));
      ("tied", fun i _ -> (V.Int (i / 4), V.Int (7 * i mod 5)));
      ("null-keyed", fun i _ -> ((if i mod 3 = 0 then V.Null else V.Int i), V.Int (i mod 2)));
      ( "mixed",
        fun i _ ->
          ( (match i mod 3 with
            | 0 -> V.Int i
            | 1 -> V.Float (float_of_int i -. 0.5)
            | _ -> V.Str (Printf.sprintf "s%03d" (i mod 7))),
            match i mod 2 with 0 -> V.Float 1.5 | _ -> V.Int 1 ) );
    ]
  in
  let k1 = A.qcol "t" "k1" and k2 = A.qcol "t" "k2" in
  (* a correlated subquery key, evaluated once per row by both executors *)
  let sub_k1 =
    A.Scalar_subquery
      (A.Project ([ (k1, "v") ], A.Values { cols = [ "d" ]; rows = [ [ V.Int 0 ] ] }))
  in
  let orders =
    [
      [ (k1, A.Asc) ];
      [ (k1, A.Desc) ];
      [ (k1, A.Asc); (k2, A.Desc) ];
      [ (k1, A.Desc); (k2, A.Asc) ];
      [ (k2, A.Asc); (k1, A.Asc) ];
      [ (sub_k1, A.Asc) ];
    ]
  in
  let scan = A.Seq_scan { table = "t"; alias = "t" } in
  let item = A.Xml_element ("r", [ ("id", A.col "id") ], [ A.col "k1" ]) in
  let plans keys =
    [
      ( "Sort",
        A.Project
          ( [ (A.col "id", "id"); (A.col "k1", "k1"); (A.col "k2", "k2") ],
            A.Sort (keys, scan) ) );
      ( "XMLAgg",
        A.Aggregate { group_by = []; aggs = [ (A.Xml_agg (item, keys), "x") ]; input = scan } );
      ( "grouped XMLAgg",
        A.Aggregate
          {
            group_by = [ (A.col "g", "g") ];
            aggs = [ (A.Xml_agg (item, keys), "x") ];
            input = scan;
          } );
    ]
  in
  let render rows =
    String.concat ";"
      (List.map (fun r -> String.concat "," (List.map (fun (n, v) -> n ^ "=" ^ V.show v) r)) rows)
  in
  let order_counts stats =
    List.map (fun (e : ST.entry) -> (e.ST.label, e.ST.op.ST.presorted, e.ST.op.ST.sorted))
      (ST.entries stats)
  in
  List.iter
    (fun (shape, gen) ->
      List.iter
        (fun n ->
          let db = DB.create () in
          let t =
            DB.create_table db "t"
              (List.map
                 (fun c -> { T.col_name = c; col_type = V.Tint })
                 [ "id"; "k1"; "k2"; "g" ])
          in
          for i = 0 to n - 1 do
            let a, b = gen i n in
            T.insert_values t [ V.Int i; a; b; V.Int (i mod 2) ]
          done;
          List.iteri
            (fun oi keys ->
              List.iter
                (fun (what, plan) ->
                  let label = Printf.sprintf "%s %s, %d rows, order #%d" what shape n oi in
                  let crows, cstats = E.run_analyzed db plan in
                  let irows, istats = Ref_exec.run_analyzed db plan in
                  check cs (label ^ ": compiled = interpreted") (render irows) (render crows);
                  check cs
                    (label ^ ": compiled = interpreted (streamed)")
                    (render (Ref_exec.run ~xml_streaming:true db plan))
                    (render crows);
                  check cb (label ^ ": same ordering strategy") true
                    (order_counts cstats = order_counts istats))
                (plans keys))
            orders)
        [ 0; 1; 2; 37; E.default_batch_size + 3 ])
    shapes;
  (* the fast path is really taken: one presorted key, one reversed *)
  let db = DB.create () in
  let t = DB.create_table db "t" [ { T.col_name = "k1"; col_type = V.Tint } ] in
  for i = 0 to 99 do
    T.insert_values t [ V.Int i ]
  done;
  let strategy dir =
    let plan = A.Sort ([ (k1, dir) ], scan) in
    let _, stats = E.run_analyzed db plan in
    match ST.find stats plan with
    | Some s -> (s.ST.presorted, s.ST.sorted)
    | None -> Alcotest.fail "Sort not registered"
  in
  check Alcotest.(pair int int) "ascending heap, ASC: presorted" (1, 0) (strategy A.Asc);
  check Alcotest.(pair int int) "ascending heap, DESC: sorted" (0, 1) (strategy A.Desc)

(* predicate differential: random Filter / CASE / nested-loop join
   conditions over a small typed table holding NULLs, Int/Float mixes,
   numeric and non-numeric strings.  The compiled executor's unboxed
   predicates must select exactly the rows the interpreted executor's
   value-level evaluation selects (or fail with the same error). *)
let pred_db () =
  let db = DB.create () in
  let t =
    DB.create_table db "p"
      (List.map (fun c -> { T.col_name = c; col_type = V.Tint }) [ "id"; "a"; "b"; "c" ])
  in
  (* a and b: NULL, numbers and numeric strings; c: strings, of which
     the non-numeric ones fail a comparison with a number *)
  let nums =
    [|
      V.Null; V.Int 0; V.Int 1; V.Int 2; V.Int (-1); V.Float 1.0; V.Float 0.5; V.Float 0.0;
      V.Float Float.nan; V.Str "1"; V.Str "2.5";
    |]
  in
  let strs = [| V.Str "abc"; V.Null; V.Str ""; V.Str "1"; V.Str "b" |] in
  for i = 0 to 10 do
    T.insert_values t [ V.Int i; nums.(i); nums.((5 * i + 3) mod 11); strs.(i mod 5) ]
  done;
  db

let gen_pred : A.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let col = frequency [ (3, return "a"); (3, return "b"); (1, return "c") ] in
  let operand =
    frequency
      [
        (4, map2 (fun al c -> A.Col (Some al, c)) (oneofl [ "o"; "i" ]) col);
        ( 2,
          oneofl
            [
              A.Const V.Null; A.const_int 0; A.const_int 1; A.Const (V.Float 1.0);
              A.Const (V.Float 0.5); A.const_str "1"; A.const_str "b";
            ] );
      ]
  in
  let cmp =
    map3
      (fun op a b -> A.Binop (op, a, b))
      (oneofl A.[ Eq; Neq; Lt; Leq; Gt; Geq ])
      operand operand
  in
  fix
    (fun self d ->
      if d = 0 then frequency [ (5, cmp); (1, operand); (1, map (fun e -> A.Is_null e) operand) ]
      else
        frequency
          [
            (3, cmp);
            (1, operand);
            (2, map2 (fun a b -> A.Binop (A.And, a, b)) (self (d - 1)) (self (d - 1)));
            (2, map2 (fun a b -> A.Binop (A.Or, a, b)) (self (d - 1)) (self (d - 1)));
            (2, map (fun a -> A.Not a) (self (d - 1)));
          ])
    3

let prop_predicate_differential =
  let db = pred_db () in
  let scan alias = A.Seq_scan { table = "p"; alias } in
  let ids = [ (A.qcol "o" "id", "oid"); (A.qcol "i" "id", "iid") ] in
  let cross = A.Nested_loop { outer = scan "o"; inner = scan "i"; join_cond = None } in
  let outcome run plan =
    match run plan with
    | rows ->
        Ok (List.map (fun r -> String.concat "," (List.map (fun (n, v) -> n ^ "=" ^ V.show v) r)) rows)
    | exception V.Type_error m -> Error m
  in
  QCheck.Test.make ~name:"unboxed predicates ≡ interpreted selection" ~count:300
    (QCheck.make
       ~print:(fun (p, q) -> A.expr_sql p ^ "  |  " ^ A.expr_sql q)
       QCheck.Gen.(pair gen_pred gen_pred))
    (fun (p, q) ->
      let plans =
        [
          A.Project (ids, A.Filter (p, cross));
          A.Project (ids, A.Nested_loop { outer = scan "o"; inner = scan "i"; join_cond = Some p });
          A.Project
            ( ids
              @ [
                  ( A.Case ([ (p, A.const_str "p"); (q, A.const_str "q") ], Some (A.const_str "-")),
                    "case" );
                  (A.Case ([ (A.Not p, A.const_int 1) ], None), "notp");
                  (p, "pv");
                ],
              cross );
        ]
      in
      List.for_all
        (fun plan ->
          let c = outcome (E.run db) plan and i = outcome (Ref_exec.run db) plan in
          c = i || QCheck.Test.fail_reportf "plan %s differs" (A.plan_sql plan))
        plans)

(* correlation differential: random plans whose scalar and EXISTS
   subqueries nest up to three deep inside every operator, correlated on
   the rows around them.  Column references are drawn from everything in
   scope at their depth — own columns and every enclosing binding — and
   scans, projections, groups and VALUES reuse names ("a", "id", the
   aliases "t"/"u"/"v") so inner bindings shadow outer ones.  Compiled
   rows, DOM and streamed, must equal the interpreted executor's, with
   identical per-operator actual rows and loops.  Names starting with
   'x' hold XML or strings and stay out of scalar positions. *)
let corr_db () =
  let db = DB.create () in
  let table name cols rows =
    let t =
      DB.create_table db name (List.map (fun c -> { T.col_name = c; col_type = V.Tint }) cols)
    in
    List.iter (T.insert_values t) rows;
    ignore (T.create_index t ~name:(name ^ "_id") ~column:"id")
  in
  let n = V.Null and i k = V.Int k in
  table "t" [ "id"; "a"; "b" ]
    [ [ i 0; i 1; n ]; [ i 1; i 2; i 0 ]; [ i 2; n; i 1 ]; [ i 3; i 1; i 2 ]; [ i 4; i 3; n ] ];
  table "u" [ "id"; "a"; "c" ] [ [ i 2; i 2; i 5 ]; [ i 1; n; i 1 ]; [ i 0; i 1; n ]; [ i 2; i 2; i 0 ] ];
  db

let corr_cols = function "t" -> [ "id"; "a"; "b" ] | _ -> [ "id"; "a"; "c" ]

let col_of name =
  match String.index_opt name '.' with
  | Some k -> A.Col (Some (String.sub name 0 k), String.sub name (k + 1) (String.length name - k - 1))
  | None -> A.Col (None, name)

let is_xml name = name.[0] = 'x'

(* [gen_scalar sub scope n]: a scalar expression over [scope] (names in
   resolution order) whose subqueries nest at most [sub] deep *)
let rec gen_scalar sub scope n : A.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let names = List.filter (fun s -> not (is_xml s)) scope in
  let leaf =
    frequency
      ([ (2, map A.const_int (int_range (-1) 4)); (1, return (A.Const V.Null)) ]
      @ if names = [] then [] else [ (6, map col_of (oneofl names)) ])
  in
  if n <= 0 then leaf
  else
    let self = gen_scalar sub scope (n / 2) in
    frequency
      ([
         (3, leaf);
         (2, map3 (fun op a b -> A.Binop (op, a, b)) (oneofl A.[ Add; Sub; Mul ]) self self);
         (3, map3 (fun op a b -> A.Binop (op, a, b)) (oneofl A.[ Eq; Neq; Lt; Leq; Gt; Geq ]) self self);
         (1, map3 (fun op a b -> A.Binop (op, a, b)) (oneofl A.[ And; Or ]) self self);
         (1, map (fun a -> A.Not a) self);
         (1, map (fun a -> A.Is_null a) self);
         (1, map3 (fun c r e -> A.Case ([ (c, r) ], Some e)) self self self);
       ]
      @
      if sub <= 0 then []
      else
        [
          ( 3,
            map
              (fun (p, own) -> A.Scalar_subquery (scalar_first p own scope))
              (gen_plan (sub - 1) 2 scope) );
          (2, map (fun (p, _) -> A.Exists p) (gen_plan (sub - 1) 2 scope));
        ])

(* an XML constructor: scalar attribute, content drawn from any binding
   (XML ones included) or from a subquery that may return XML *)
and gen_xml sub scope : A.expr QCheck.Gen.t =
  let open QCheck.Gen in
  let content =
    frequency
      ((2, gen_scalar sub scope 1) :: (if scope = [] then [] else [ (2, map col_of (oneofl scope)) ])
      @
      if sub <= 0 then []
      else [ (2, map (fun (p, _) -> A.Scalar_subquery p) (gen_plan (sub - 1) 2 scope)) ])
  in
  map2 (fun a k -> A.Xml_element ("e", [ ("k", a) ], [ k ])) (gen_scalar sub scope 1) content

(* a subquery in scalar position must not return XML: project a scalar
   column over it when its first binding is an XML one *)
and scalar_first p own env =
  match own @ env with
  | first :: _ when is_xml first ->
      let v =
        match List.filter (fun s -> not (is_xml s)) (own @ env) with
        | s :: _ -> col_of s
        | [] -> A.const_int 0
      in
      A.Project ([ (v, "v") ], p)
  | _ -> p

(* [gen_plan sub n env]: a plan over environment [env] with about [n]
   operators, paired with the names of its own columns *)
and gen_plan sub n env : (A.plan * string list) QCheck.Gen.t =
  let open QCheck.Gen in
  let own_of table alias = List.concat_map (fun c -> [ c; alias ^ "." ^ c ]) (corr_cols table) in
  let alias = oneofl [ "t"; "u"; "v" ] in
  let scan =
    map2 (fun table alias -> (A.Seq_scan { table; alias }, own_of table alias)) (oneofl [ "t"; "u" ]) alias
  in
  let bound =
    frequency
      [
        (1, return A.Unbounded);
        (2, map (fun e -> A.Incl e) (gen_scalar 0 env 1));
        (1, map (fun e -> A.Excl e) (gen_scalar 0 env 1));
      ]
  in
  let index_scan =
    map4
      (fun table alias lo hi ->
        (A.Index_scan { table; alias; index_column = "id"; lo; hi }, own_of table alias))
      (oneofl [ "t"; "u" ]) alias bound bound
  in
  let values =
    oneofl [ []; [ "v" ]; [ "v"; "a" ] ] >>= fun cols ->
    list_size (int_bound 3)
      (flatten_l (List.map (fun _ -> oneofl [ V.Null; V.Int 0; V.Int 1; V.Int 2 ]) cols))
    >|= fun rows -> (A.Values { cols; rows }, cols)
  in
  let leaf = frequency [ (3, scan); (2, index_scan); (1, values) ] in
  let expr scope = gen_scalar sub scope 2 in
  let fields scope =
    list_size (int_range 1 3) (oneofl [ "p"; "q"; "a"; "id"; "x0"; "x1" ]) >>= fun names ->
    let names = List.sort_uniq compare names in
    flatten_l
      (List.map
         (fun nm -> map (fun e -> (e, nm)) (if is_xml nm then gen_xml sub scope else expr scope))
         names)
  in
  let aggs scope =
    let e = expr scope in
    let pool =
      [
        (return A.Count_star, "n"); (map (fun e -> A.Count e) e, "c");
        (map (fun e -> A.Sum e) e, "s"); (map (fun e -> A.Min e) e, "mn");
        (map (fun e -> A.Max e) e, "a"); (map (fun e -> A.Avg e) e, "av");
        (map (fun e -> A.String_agg (e, ",")) e, "xs");
        ( map2 (fun x k -> A.Xml_agg (x, k)) (gen_xml sub scope)
            (list_size (int_bound 1) (pair e (oneofl A.[ Asc; Desc ]))),
          "xa" );
      ]
    in
    list_size (int_range 1 2) (oneofl pool) >>= fun picked ->
    let picked = List.sort_uniq (fun (_, a) (_, b) -> compare a b) picked in
    flatten_l (List.map (fun (g, nm) -> map (fun a -> (a, nm)) g) picked)
  in
  if n <= 0 then leaf
  else
    let child = gen_plan sub (n - 1) env in
    frequency
      [
        (2, leaf);
        (2, child >>= fun (p, own) -> map (fun c -> (A.Filter (c, p), own)) (expr (own @ env)));
        ( 2,
          child >>= fun (p, own) ->
          map (fun fs -> (A.Project (fs, p), List.map snd fs)) (fields (own @ env)) );
        ( 2,
          gen_plan sub (n / 2) env >>= fun (op, oown) ->
          gen_plan sub (n / 2) (oown @ env) >>= fun (ip, iown) ->
          opt (expr (iown @ oown @ env)) >|= fun join_cond ->
          (A.Nested_loop { outer = op; inner = ip; join_cond }, iown @ oown) );
        ( 2,
          gen_plan sub (n / 2) env >>= fun (op, oown) ->
          gen_plan sub (n / 2) env >>= fun (ip, iown) ->
          list_size (int_range 1 2) (pair (expr (oown @ env)) (expr (iown @ env))) >>= fun keys ->
          oneofl A.[ Inner; Left_outer; Semi; Anti ] >|= fun kind ->
          ( A.Hash_join { outer = op; inner = ip; keys; kind },
            match kind with Inner | Left_outer -> iown @ oown | Semi | Anti -> oown ) );
        ( 2,
          child >>= fun (p, own) ->
          let scope = own @ env in
          list_size (int_bound 1) (map (fun e -> (e, "g")) (expr scope)) >>= fun group_by ->
          aggs scope >|= fun aggs ->
          (A.Aggregate { group_by; aggs; input = p }, List.map snd group_by @ List.map snd aggs) );
        ( 1,
          child >>= fun (p, own) ->
          list_size (int_range 1 2) (pair (expr (own @ env)) (oneofl A.[ Asc; Desc ]))
          >|= fun keys -> (A.Sort (keys, p), own) );
        (1, child >>= fun (p, own) -> map (fun k -> (A.Limit (k, p), own)) (int_bound 3));
      ]

(* [(rows, work)] upper bounds of one execution of [p], subqueries
   included: random plans above a work budget are redrawn, so nested
   correlated subqueries stay cheap to run three ways *)
let rec plan_cost db (p : A.plan) : int * int =
  let subs sps = List.fold_left (fun acc sp -> acc + snd (plan_cost db sp)) 1 sps in
  let ecs es = List.fold_left (fun acc e -> acc + subs (A.subplans_of_expr e)) 0 es in
  let size table = T.size (DB.table db table) in
  let over i f =
    let r, w = plan_cost db i in
    f r w
  in
  match p with
  | A.Seq_scan { table; _ } -> (size table, size table)
  | A.Index_scan { table; lo; hi; _ } ->
      let b = function A.Unbounded -> [] | A.Incl e | A.Excl e -> [ e ] in
      (size table, size table + ecs (b lo @ b hi))
  | A.Values { rows; _ } -> (List.length rows, 1)
  | A.Filter (c, i) -> over i (fun r w -> (r, w + (r * ecs [ c ])))
  | A.Project (fs, i) -> over i (fun r w -> (r, w + (r * ecs (List.map fst fs))))
  | A.Sort (ks, i) -> over i (fun r w -> (r, w + (r * ecs (List.map fst ks))))
  | A.Limit (k, i) -> over i (fun r w -> (min k r, w))
  | A.Aggregate { group_by; aggs; input } ->
      over input (fun r w ->
          let per_row =
            List.fold_left
              (fun acc (a, _) -> acc + subs (A.subplans_of_agg a))
              (ecs (List.map fst group_by))
              aggs
          in
          ((if group_by = [] then 1 else r), w + (r * per_row)))
  | A.Nested_loop { outer; inner; join_cond } ->
      let ro, wo = plan_cost db outer and ri, wi = plan_cost db inner in
      (ro * ri, wo + (ro * (wi + (ri * ecs (Option.to_list join_cond)))))
  | A.Hash_join { outer; inner; keys; kind } ->
      let ro, wo = plan_cost db outer and ri, wi = plan_cost db inner in
      ( (match kind with A.Inner | A.Left_outer -> ro * max 1 ri | A.Semi | A.Anti -> ro),
        wo + wi + (ro * ecs (List.map fst keys)) + (ri * ecs (List.map snd keys)) )

let prop_correlation_differential =
  let db = corr_db () in
  let rec bounded st =
    let ((p, _) as r) = gen_plan 3 3 [] st in
    if snd (plan_cost db p) <= 20_000 then r else bounded st
  in
  (* the bindings a name can reach: the interpreted nested loop repeats
     the outer row's bindings behind the inner row's, where first-match
     resolution never sees them *)
  let render rows =
    let visible r =
      List.rev
        (List.fold_left (fun acc (n, v) -> if List.mem_assoc n acc then acc else (n, v) :: acc) [] r)
    in
    String.concat ";"
      (List.map
         (fun r -> String.concat "," (List.map (fun (n, v) -> n ^ "=" ^ V.show v) (visible r)))
         rows)
  in
  let counts stats =
    List.map (fun (e : ST.entry) -> (e.ST.label, e.ST.op.ST.rows, e.ST.op.ST.loops)) (ST.entries stats)
  in
  QCheck.Test.make ~name:"correlated subplans ≡ interpreted (rows, streamed rows, per-operator counts)"
    ~count:300
    (QCheck.make ~print:(fun (p, _) -> A.plan_sql p) bounded)
    (fun (plan, _) ->
      let irows, istats = Ref_exec.run_analyzed db plan in
      let crows, cstats = E.run_analyzed db plan in
      let layout, srows = E.run_arrays ~xml_streaming:true db plan in
      let i = render irows in
      (render crows = i
      || QCheck.Test.fail_reportf "compiled rows %s\ninterpreted rows %s" (render crows) i)
      && (render (List.map (Xdb_rel.Layout.to_assoc layout) srows) = i
         || QCheck.Test.fail_report "streamed rows differ")
      && (counts cstats = counts istats || QCheck.Test.fail_report "per-operator counts differ"))

(* emitter differential: random SQL/XML constructor trees over [t] —
   attributes that are NULL, Int, Float, Str or [concat]; XMLForest
   fields that may be NULL; CASE in content position with and without
   ELSE; XMLAgg ... ORDER BY nested through correlated subqueries; and
   correlated scalar subqueries inside attributes and content.  The
   compiled executor's streamed output, its DOM output and the
   interpreted executor's (DOM and streamed) serialise to the same
   bytes, with the same per-operator counters; a streamed value replays
   identically, also after a [bool_of_value] probe. *)
let gen_publish : A.plan QCheck.Gen.t =
  let open QCheck.Gen in
  let names = oneofl [ "e"; "f"; "g" ] in
  let rec scalar d scope =
    let leaf =
      frequency
        [
          (1, return (A.Const V.Null));
          (1, map A.const_int (int_range (-2) 3));
          (1, map (fun f -> A.Const (V.Float f)) (oneofl [ 2.5; -0.0; 3.0; -1.25; 1e20; 0.1 ]));
          (1, map (fun s -> A.Const (V.Str s)) (oneofl [ ""; "s"; "a<b&\"c\"\t" ]));
          (4, map col_of (oneofl scope));
          (1, map (fun c -> A.Binop (A.Fdiv, col_of c, A.const_int 2)) (oneofl scope));
        ]
    in
    if d <= 0 then leaf
    else
      frequency
        [
          (4, leaf);
          ( 2,
            map (fun args -> A.Fn ("concat", args)) (list_size (int_range 1 3) (scalar (d - 1) scope))
          );
          ( 1,
            correlated scope >>= fun (from, inner) ->
            map
              (fun e -> A.Scalar_subquery (A.Project ([ (e, "v") ], from)))
              (scalar (d - 1) inner) );
        ]
  (* rows of [t] or [u] correlated on an outer column, by a filter or an
     index probe; the subquery's scope is its own columns, then [scope] *)
  and correlated scope =
    let alias = Printf.sprintf "s%d" (List.length scope) in
    pair (oneofl [ "t"; "u" ]) (pair (oneofl scope) bool) >|= fun (table, (outer, probe)) ->
    let from =
      if probe then
        A.Index_scan
          { table; alias; index_column = "id"; lo = A.Incl (col_of outer); hi = A.Unbounded }
      else
        A.Filter
          (A.Binop (A.Leq, A.qcol alias "id", col_of outer), A.Seq_scan { table; alias })
    in
    (from, List.map (fun c -> alias ^ "." ^ c) (corr_cols table) @ scope)
  and agg d scope =
    correlated scope >>= fun (from, inner) ->
    let own = List.filteri (fun i _ -> i < 3) inner in
    pair (elem d inner) (list_size (int_range 0 2) (pair (oneofl own) (oneofl A.[ Asc; Desc ])))
    >|= fun (x, order) ->
    A.Scalar_subquery
      (A.Aggregate
         {
           group_by = [];
           aggs = [ (A.Xml_agg (x, List.map (fun (c, dir) -> (col_of c, dir)) order), "xa") ];
           input = from;
         })
  and elem d scope =
    let attr = pair (oneofl [ "k"; "m"; "n" ]) (scalar 2 scope) in
    let kids = list_size (int_range 0 3) (content (d - 1) scope) in
    triple names (list_size (int_range 0 3) attr) kids
    >|= fun (n, attrs, kids) ->
    A.Xml_element (n, List.sort_uniq (fun (a, _) (b, _) -> compare a b) attrs, kids)
  and content d scope =
    let num =
      frequency [ (1, map A.const_int (int_range (-1) 3)); (2, map col_of (oneofl scope)) ]
    in
    let test =
      frequency
        [
          (3, triple (oneofl A.[ Eq; Lt; Geq ]) num num >|= fun (op, a, b) -> A.Binop (op, a, b));
          (1, map (fun c -> A.Is_null (col_of c)) (oneofl scope));
        ]
    in
    if d <= 0 then scalar 1 scope
    else
      frequency
        [
          (2, scalar 1 scope);
          (3, elem d scope);
          ( 1,
            map
              (fun fs -> A.Xml_forest (List.sort_uniq (fun (a, _) (b, _) -> compare a b) fs))
              (list_size (int_range 1 3) (pair names (scalar 1 scope))) );
          ( 2,
            pair (list_size (int_range 1 2) (pair test (content (d - 1) scope)))
              (opt (content (d - 1) scope))
            >|= fun (whens, els) -> A.Case (whens, els) );
          (1, map (fun es -> A.Xml_concat es) (list_size (int_range 0 3) (content (d - 1) scope)));
          (1, map (fun e -> A.Xml_text e) (scalar 1 scope));
          (1, return (A.Xml_comment (A.Const (V.Str "note"))));
          (2, agg (d - 1) scope);
        ]
  in
  let top = [ "t.id"; "t.a"; "t.b" ] and scan = A.Seq_scan { table = "t"; alias = "t" } in
  frequency
    [
      (3, map (fun x -> A.Project ([ (x, "x") ], scan)) (elem 3 top));
      ( 1,
        pair (elem 3 top) (oneofl A.[ Asc; Desc ]) >|= fun (x, dir) ->
        A.Aggregate
          {
            group_by = [];
            aggs = [ (A.Xml_agg (x, [ (A.qcol "t" "a", dir) ]), "x") ];
            input = scan;
          } );
    ]

let prop_emitter_differential =
  let db = corr_db () in
  let counts stats =
    List.map
      (fun (e : ST.entry) ->
        let o = e.ST.op in
        ( e.ST.label,
          [ o.ST.rows; o.ST.loops; o.ST.btree_probes; o.ST.btree_nodes; o.ST.heap_rows;
            o.ST.presorted; o.ST.sorted ] ))
      (ST.entries stats)
  in
  let serialise rows = List.map (fun r -> V.to_string (List.assoc "x" r)) rows in
  QCheck.Test.make ~name:"constructor emitters ≡ interpreted (bytes, DOM and streamed, counters)"
    ~count:300
    (QCheck.make ~print:A.plan_sql gen_publish)
    (fun plan ->
      let irows, istats = Ref_exec.run_analyzed db plan in
      let expected = serialise irows in
      let crows, cstats = E.run_analyzed db plan in
      let (_, srows), sstats = E.run_arrays_analyzed ~xml_streaming:true db plan in
      let streamed = List.map (fun r -> r.(0)) srows in
      (* serialising runs the streams' subqueries: once, before the counts *)
      let first = List.map V.to_string streamed in
      let dom_values = List.map (fun r -> List.assoc "x" r) crows in
      (serialise crows = expected || QCheck.Test.fail_report "compiled DOM bytes differ")
      && (first = expected || QCheck.Test.fail_report "compiled streamed bytes differ")
      && (serialise (Ref_exec.run ~xml_streaming:true db plan) = expected
         || QCheck.Test.fail_report "interpreted streamed bytes differ")
      && (counts cstats = counts istats || QCheck.Test.fail_report "compiled counters differ")
      && (counts sstats = counts istats || QCheck.Test.fail_report "streamed counters differ")
      && (List.map V.to_string streamed = first || QCheck.Test.fail_report "replay differs")
      && (List.map E.bool_of_value streamed = List.map E.bool_of_value dom_values
         || QCheck.Test.fail_report "bool_of_value differs")
      && (List.map V.to_string streamed = first
         || QCheck.Test.fail_report "replay after bool_of_value differs"))

(* the assoc entry points hand the caller's outer bindings back as the
   tail of every row, whatever the compiled rows hold *)
let test_outer_bindings_returned () =
  let db = setup_db () in
  let outer = [ ("d.deptno", V.Int 10); ("k", V.Str "kk") ] in
  let emps =
    A.Filter (A.(qcol "e" "deptno" =. qcol "d" "deptno"), A.Seq_scan { table = "emp"; alias = "e" })
  in
  let render rows =
    List.map (fun r -> String.concat "," (List.map (fun (n, v) -> n ^ "=" ^ V.show v) r)) rows
  in
  let expected = render (Ref_exec.run db ~outer emps) in
  check Alcotest.(list string) "run" expected (render (E.run db ~outer emps));
  check Alcotest.(list string) "run_analyzed" expected (render (fst (E.run_analyzed db ~outer emps)));
  check cb "rows end with the outer bindings" true
    (List.for_all (fun r -> List.assoc "k" r = V.Str "kk") (E.run db ~outer emps));
  check Alcotest.(list int) "run_column: first own column" [ 7782; 7934 ]
    (List.map V.to_int (E.run_column db ~outer emps));
  (* no own columns: the first column is the first outer binding *)
  check Alcotest.(list int) "run_column over VALUES ()" [ 10; 10 ]
    (List.map V.to_int (E.run_column db ~outer (A.Values { cols = []; rows = [ []; [] ] })))

(* a subquery with no own columns returns its first environment column —
   at depth one (the dept row) and at depth two (the emp row, followed by
   the dept row, in the subplan's environment) *)
let test_subquery_first_slot_outer () =
  let db = setup_db () in
  let no_cols = A.Values { cols = []; rows = [ [] ] } in
  let first_emp =
    A.Project
      ( [ (A.Scalar_subquery no_cols, "w") ],
        A.Filter
          (A.(qcol "e" "deptno" =. qcol "d" "deptno"), A.Seq_scan { table = "emp"; alias = "e" })
      )
  in
  let plan =
    A.Project
      ( [ (A.Scalar_subquery no_cols, "v"); (A.Scalar_subquery first_emp, "w") ],
        A.Seq_scan { table = "dept"; alias = "d" } )
  in
  let rows = E.run db plan in
  check Alcotest.(list int) "depth one: d.deptno" [ 10; 40 ]
    (List.map (fun r -> V.to_int (List.assoc "v" r)) rows);
  check Alcotest.(list int) "depth two: first e.empno" [ 7782; 7954 ]
    (List.map (fun r -> V.to_int (List.assoc "w" r)) rows);
  check cb "compiled = interpreted" true (rows = Ref_exec.run db plan)

(* chart's shape: one streamed XMLAgg per outer row, built by a
   correlated subquery and serialised only after every row (and so every
   later inner open) is done.  Each stream must still read its own outer
   row — what a shared "current outer row" cell would get wrong. *)
let test_streams_serialised_after_all_opens () =
  let db = setup_db () in
  let items =
    A.Aggregate
      {
        group_by = [];
        aggs =
          [
            ( A.Xml_agg
                (A.Xml_element ("item", [ ("dept", A.qcol "d" "dname") ], [ A.qcol "e" "ename" ]), []),
              "items" );
          ];
        input =
          A.Filter
            (A.(qcol "e" "deptno" =. qcol "d" "deptno"), A.Seq_scan { table = "emp"; alias = "e" });
      }
  in
  let plan = A.Project ([ (A.Scalar_subquery items, "x") ], A.Seq_scan { table = "dept"; alias = "d" }) in
  let serialise (_, rows) = List.map (fun r -> V.to_string r.(0)) rows in
  let streamed = E.run_arrays ~xml_streaming:true db plan in
  check cb "results are unserialised streams" true
    (List.for_all (fun r -> match r.(0) with V.Xml_stream _ -> true | _ -> false) (snd streamed));
  let expected =
    [
      "<item dept=\"ACCOUNTING\">CLARK</item><item dept=\"ACCOUNTING\">MILLER</item>";
      "<item dept=\"OPERATIONS\">SMITH</item>";
    ]
  in
  check Alcotest.(list string) "streamed, serialised last" expected (serialise streamed);
  check Alcotest.(list string) "DOM" expected (serialise (E.run_arrays db plan));
  check Alcotest.(list string) "interpreted, streamed" expected
    (List.map (fun r -> V.to_string (List.assoc "x" r)) (Ref_exec.run ~xml_streaming:true db plan))

(* scans hand out the table's own row arrays; no plan may write to them *)
let test_plans_leave_table_rows_unchanged () =
  let db = setup_db () in
  let snapshot name =
    let t = DB.table db name in
    List.init (T.size t) (fun rid -> Array.copy (T.row t rid))
  in
  let before = List.map snapshot [ "dept"; "emp" ] in
  let scan t a = A.Seq_scan { table = t; alias = a } in
  let plans =
    [
      A.Project
        ( [ (A.Binop (A.Add, A.col "sal", A.const_int 1), "sal"); (A.col "ename", "deptno") ],
          A.Nested_loop
            { outer = scan "dept" "d"; inner = scan "emp" "e";
              join_cond = Some A.(qcol "e" "deptno" =. qcol "d" "deptno") } );
      A.Hash_join
        { outer = scan "dept" "d"; inner = scan "emp" "e";
          keys = [ (A.qcol "d" "deptno", A.qcol "e" "deptno") ]; kind = A.Left_outer };
      A.Sort ([ (A.col "sal", A.Desc) ], scan "emp" "e");
      A.Aggregate
        { group_by = [ (A.col "deptno", "deptno") ]; aggs = [ (A.Sum (A.col "sal"), "sal") ];
          input = scan "emp" "e" };
    ]
  in
  List.iter (fun p -> ignore (E.run db p); ignore (E.run_arrays ~xml_streaming:true db p)) plans;
  check cb "table rows unchanged" true (List.map snapshot [ "dept"; "emp" ] = before);
  check cb "a scan shares the table's row" true
    (match E.run_arrays db (scan "emp" "e") with
    | _, r :: _ -> r == T.row (DB.table db "emp") 0
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Column footprints                                                   *)
(* ------------------------------------------------------------------ *)

module FP = Xdb_rel.Footprint

(* the rewrite plans' shape: a wrapper per [base] row around the XMLAgg
   of a driving scan of [t], correlated on [b], filtered on [f], ordered
   by [k]; members render [v] (and whatever [extra] adds) *)
let agg_plan ?(extra = []) ?(driving = A.Seq_scan { table = "t"; alias = "t" }) () =
  let member = A.Xml_element ("m", [], A.Xml_text (A.qcol "t" "v") :: extra) in
  let cond = A.(qcol "t" "b" =. qcol "base" "b" &&. (qcol "t" "f" >. const_int 0)) in
  A.Project
    ( [
        ( A.Xml_element
            ( "w",
              [],
              [
                A.Scalar_subquery
                  (A.Aggregate
                     {
                       group_by = [];
                       aggs = [ (A.Xml_agg (member, [ (A.qcol "t" "k", A.Asc) ]), "result") ];
                       input = A.Filter (cond, driving);
                     });
              ] ),
          "result" );
      ],
      A.Seq_scan { table = "base"; alias = "base" } )

let verdict =
  Alcotest.testable
    (fun f v ->
      Format.pp_print_string f
        (match v with
        | FP.Irrelevant -> "irrelevant"
        | FP.Driving -> "driving"
        | FP.Correlated keys ->
            "correlated on " ^ String.concat "," (List.map (fun (c, d) -> c ^ "=" ^ d) keys)
        | FP.Recompute -> "recompute"))
    ( = )

(* a write reaches only what the plan reads; it patches only when the
   member expression alone reads it, through the driving row *)
let test_footprint_patch_rules () =
  let fp = FP.of_plan (agg_plan ()) in
  let is what table cols want = check verdict what want (FP.classify fp ~table cols) in
  is "a column nothing reads" "t" [ "z" ] FP.Irrelevant;
  is "a table the plan does not scan" "other" [ "v" ] FP.Irrelevant;
  is "a member-only column" "t" [ "v" ] FP.Driving;
  is "with one nothing reads" "t" [ "z"; "v" ] FP.Driving;
  is "a filter column" "t" [ "f" ] FP.Recompute;
  is "a correlation column" "t" [ "b" ] FP.Recompute;
  is "an order key" "t" [ "k" ] FP.Recompute;
  is "the outer table's correlation column" "base" [ "b" ] FP.Recompute;
  let classify ?extra ?driving cols =
    FP.classify (FP.of_plan (agg_plan ?extra ?driving ())) ~table:"t" cols
  in
  check verdict "an index scan's column" FP.Recompute
    (classify [ "v" ]
       ~driving:
         (A.Index_scan
            { table = "t"; alias = "t"; index_column = "v"; lo = A.Incl (A.const_int 1); hi = A.Unbounded }));
  check verdict "a member subquery over the driving table" FP.Recompute
    (classify [ "v" ]
       ~extra:
         [
           A.Xml_text
             (A.Scalar_subquery
                (A.Aggregate
                   { group_by = []; aggs = [ (A.Count_star, "n") ]; input = A.Seq_scan { table = "t"; alias = "t2" } }));
         ]);
  check verdict "an unqualified name counts against every table" FP.Recompute
    (FP.classify
       (FP.of_plan
          (A.Filter (A.Binop (A.Gt, A.col "v", A.const_int 0), agg_plan ())))
       ~table:"t" [ "v" ]);
  check verdict "a member that is not markup" FP.Recompute
    (FP.classify
       (FP.of_plan
          (A.Project
             ( [ (A.Scalar_subquery (A.Aggregate { group_by = []; aggs = [ (A.Xml_agg (A.qcol "t" "v", []), "r") ]; input = A.Seq_scan { table = "t"; alias = "t" } }), "result") ],
               A.Seq_scan { table = "base"; alias = "base" } )))
       ~table:"t" [ "v" ])

(* an aggregate over [input] as a member's text *)
let member_sum ?(table = "i") input =
  A.Xml_text
    (A.Scalar_subquery
       (A.Aggregate { group_by = []; aggs = [ (A.Sum (A.qcol table "amt"), "s") ]; input }))

let keyed_probe ?(alias = "i") on =
  A.Index_scan
    { table = "i"; alias; index_column = "tid"; lo = A.Incl (A.qcol on "id"); hi = A.Incl (A.qcol on "id") }

(* a write to a table the member reads through a subplan keyed on the
   driving row patches the members whose key it reaches; any other inner
   read recomputes *)
let test_footprint_correlated_rules () =
  let on_i ?(wrap = Fun.id) extra cols = FP.classify (FP.of_plan (wrap (agg_plan ~extra ()))) ~table:"i" cols in
  let keyed = FP.Correlated [ ("tid", "id") ] in
  check verdict "an index probe at the driving row" keyed (on_i [ member_sum (keyed_probe "t") ] [ "amt" ]);
  check verdict "a column nothing reads" FP.Irrelevant (on_i [ member_sum (keyed_probe "t") ] [ "z" ]);
  check verdict "the key column itself" FP.Recompute (on_i [ member_sum (keyed_probe "t") ] [ "tid" ]);
  let filtered cond = A.Filter (cond, A.Seq_scan { table = "i"; alias = "i" }) in
  check verdict "a filter conjunct over a scan, a SET column in another" keyed
    (on_i [ member_sum (filtered A.(qcol "t" "id" =. qcol "i" "tid" &&. (qcol "i" "amt" >. const_int 250))) ] [ "amt" ]);
  check verdict "an unkeyed scan" FP.Recompute
    (on_i [ member_sum (A.Seq_scan { table = "i"; alias = "i" }) ] [ "amt" ]);
  check verdict "keyed on the aggregate's environment" FP.Recompute
    (on_i [ member_sum (filtered A.(qcol "i" "tid" =. qcol "base" "b")) ] [ "amt" ]);
  check verdict "one keyed scan, one not" FP.Recompute
    (on_i [ member_sum (keyed_probe "t"); member_sum (A.Seq_scan { table = "i"; alias = "i2" }) ] [ "amt" ]);
  let nested =
    A.Nested_loop
      { outer = A.Seq_scan { table = "u"; alias = "u" }; inner = keyed_probe "u"; join_cond = None }
  in
  check verdict "nested correlation" FP.Recompute (on_i [ member_sum nested ] [ "amt" ]);
  let shadowing =
    A.Nested_loop
      { outer = A.Seq_scan { table = "u"; alias = "t" }; inner = keyed_probe "t"; join_cond = None }
  in
  check verdict "the driving alias shadowed inside the member" FP.Recompute
    (on_i [ member_sum shadowing ] [ "amt" ]);
  let also_outside p = A.Filter (A.Exists (A.Seq_scan { table = "i"; alias = "i3" }), p) in
  check verdict "the inner table scanned outside the member" FP.Recompute
    (on_i ~wrap:also_outside [ member_sum (keyed_probe "t") ] [ "amt" ]);
  (* a second scan of the driving table outside the member: its own
     writes recompute, the keyed inner table's still patch *)
  let driving_twice p = A.Filter (A.Exists (A.Seq_scan { table = "t"; alias = "t2" }), p) in
  let fp = FP.of_plan (driving_twice (agg_plan ~extra:[ member_sum (keyed_probe "t") ] ())) in
  check verdict "the driving table scanned twice" FP.Recompute (FP.classify fp ~table:"t" [ "v" ]);
  check verdict "its keyed inner table" keyed (FP.classify fp ~table:"i" [ "amt" ]);
  check Alcotest.string "rendered"
    "  t.v: recompute\n  t.z: keep\n  i.tid: recompute\n  i.amt: patch (correlated as i.tid = t.id)\n"
    (FP.describe fp [ ("t", [ "v"; "z" ]); ("i", [ "tid"; "amt" ]) ])

let () =
  Alcotest.run "relational"
    [
      ( "values",
        [
          Alcotest.test_case "casts" `Quick test_value_casts;
          Alcotest.test_case "comparisons" `Quick test_value_compare;
        ] );
      ( "btree",
        [
          Alcotest.test_case "insert/find" `Quick test_btree_basic;
          Alcotest.test_case "duplicates" `Quick test_btree_duplicates;
          Alcotest.test_case "range scans" `Quick test_btree_range;
          Alcotest.test_case "string keys" `Quick test_btree_strings;
          Alcotest.test_case "remove" `Quick test_btree_remove;
          QCheck_alcotest.to_alcotest prop_btree_remove_model;
          QCheck_alcotest.to_alcotest prop_btree_model;
          QCheck_alcotest.to_alcotest prop_btree_range_walk;
        ] );
      ( "executor",
        [
          Alcotest.test_case "table errors" `Quick test_table_errors;
          Alcotest.test_case "update/delete with index" `Quick test_table_update_delete;
          Alcotest.test_case "scan/filter/project" `Quick test_scan_filter_project;
          Alcotest.test_case "index scan" `Quick test_index_scan;
          Alcotest.test_case "join" `Quick test_join;
          Alcotest.test_case "aggregate" `Quick test_aggregate;
          Alcotest.test_case "sort/limit" `Quick test_sort_limit;
          Alcotest.test_case "correlated subquery" `Quick test_scalar_subquery_correlated;
          Alcotest.test_case "case/exists/null" `Quick test_exists_case_nulls;
          Alcotest.test_case "SQL/XML publishing" `Quick test_xml_publishing_exprs;
          Alcotest.test_case "division semantics" `Quick test_division_semantics;
          Alcotest.test_case "NaN truthiness" `Quick test_nan_truthiness;
          Alcotest.test_case "round negative zero" `Quick test_sql_round_negative_zero;
          Alcotest.test_case "plan-open unknown column" `Quick test_compile_unknown_column;
          Alcotest.test_case "plan-open ambiguous output" `Quick test_compile_ambiguous_output;
          Alcotest.test_case "plan-open dead CASE branch" `Quick test_compile_dead_case_branch;
          Alcotest.test_case "batch boundaries" `Quick test_batch_boundaries;
          Alcotest.test_case "run_arrays layout" `Quick test_run_arrays_layout;
          Alcotest.test_case "ORDER BY differential" `Quick test_ordering_differential;
          QCheck_alcotest.to_alcotest prop_predicate_differential;
          QCheck_alcotest.to_alcotest prop_correlation_differential;
          Alcotest.test_case "outer bindings returned" `Quick test_outer_bindings_returned;
          Alcotest.test_case "subquery first slot is outer" `Quick test_subquery_first_slot_outer;
          Alcotest.test_case "streams serialised after all opens" `Quick
            test_streams_serialised_after_all_opens;
          Alcotest.test_case "table rows unchanged" `Quick test_plans_leave_table_rows_unchanged;
          QCheck_alcotest.to_alcotest prop_emitter_differential;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "btree counters" `Quick test_btree_counters;
          Alcotest.test_case "analyzed index scan" `Quick test_run_analyzed_index_scan;
          Alcotest.test_case "subplans + json" `Quick test_run_analyzed_subplans_and_json;
          Alcotest.test_case "drop index flips plan" `Quick test_drop_index_changes_plan;
        ] );
      ( "statistics",
        [
          Alcotest.test_case "histogram boundaries" `Quick test_colstats_histogram;
          Alcotest.test_case "skew, NDV and MCVs" `Quick test_colstats_skew_and_mcvs;
          Alcotest.test_case "sal > 2000 selectivity (Tables 7/8)" `Quick
            test_analyze_sal_selectivity;
          Alcotest.test_case "cost-based conjunct choice" `Quick test_cost_based_conjunct_choice;
          Alcotest.test_case "sampled ANALYZE: exact min/max" `Quick test_analyze_sampled_extremes;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "index selection" `Quick test_optimizer_index_selection;
          Alcotest.test_case "plan equivalence" `Quick test_optimizer_preserves_results;
          Alcotest.test_case "cardinality estimates" `Quick test_cardinality_estimates;
          Alcotest.test_case "filter pushdown through project" `Quick
            test_filter_pushdown_through_project;
          Alcotest.test_case "limit below project" `Quick test_limit_below_project;
          Alcotest.test_case "index nested-loop join" `Quick test_index_nl_join;
          Alcotest.test_case "join reorder by cost" `Quick test_join_reorder_by_cost;
          Alcotest.test_case "hash join executors" `Quick test_hash_join_exec;
          Alcotest.test_case "semi/anti unnesting" `Quick test_semi_anti_unnest;
          Alcotest.test_case "join-graph pass order" `Quick test_joingraph_pass_order;
          QCheck_alcotest.to_alcotest prop_optimize_equivalence;
          QCheck_alcotest.to_alcotest prop_hash_join_equivalence;
        ] );
      ( "publishing",
        [
          Alcotest.test_case "materialize" `Quick test_materialize;
          Alcotest.test_case "derived schema" `Quick test_view_schema;
          Alcotest.test_case "spec navigation" `Quick test_spec_navigation;
          Alcotest.test_case "index-probe consistency" `Quick test_materialize_index_probe_consistency;
          Alcotest.test_case "streamed serialization" `Quick test_materialize_serialized;
          QCheck_alcotest.to_alcotest prop_publish_spec_sites;
          Alcotest.test_case "catalog registration" `Quick test_catalog_register;
        ] );
      ( "storage",
        [
          Alcotest.test_case "CLOB roundtrip" `Quick test_clob_roundtrip;
          Alcotest.test_case "path/value index" `Quick test_pathindex;
          Alcotest.test_case "path/value index dedup counting" `Quick test_pathindex_dedup;
        ] );
      ( "footprint",
        [
          Alcotest.test_case "what a write reaches, what it patches" `Quick test_footprint_patch_rules;
          Alcotest.test_case "correlated inner tables" `Quick test_footprint_correlated_rules;
        ]
      );
      ( "shredding",
        [
          Alcotest.test_case "shred/reconstruct roundtrip" `Quick test_shred_roundtrip;
          Alcotest.test_case "five thousand distinct names" `Quick test_shred_many_names;
          QCheck_alcotest.to_alcotest prop_shred_roundtrip;
          Alcotest.test_case "XSLTMark differential" `Quick test_shred_differential_xsltmark;
          QCheck_alcotest.to_alcotest prop_shred_differential;
          QCheck_alcotest.to_alcotest prop_shred_batch_differential;
          QCheck_alcotest.to_alcotest prop_shred_positional_differential;
          Alcotest.test_case "two documents: following/preceding stay inside" `Quick
            test_shred_two_documents;
          Alcotest.test_case "following/preceding from an attribute" `Quick
            test_shred_attribute_following_preceding;
          QCheck_alcotest.to_alcotest prop_axis_oracle;
          Alcotest.test_case "stored bytes per node" `Quick test_shred_heap_per_node;
        ] );
    ]
