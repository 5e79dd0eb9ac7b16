(* Tests for the hierarchical lock manager: the multi-granularity
   compatibility matrix, intention-mode propagation to ancestors, mode
   upgrades through the lattice, lock escalation, latches, deadlock
   detection over the full hierarchy, and model-based properties whose
   oracle re-derives the waits-for graph from scratch at every step. *)

let mk ?escalation () =
  let clock = Clock.create () in
  let stats = Stats.create () in
  (stats, Lockmgr.create ?escalation clock stats Config.default.Config.cpu)

let obj f p = Lockmgr.Page (f, p)

let test_compatibility_matrix () =
  let _, lm = mk () in
  let o = obj 1 0 in
  (* S + S compatible *)
  Alcotest.(check bool) "S grant" true (Lockmgr.acquire lm ~txn:1 o Shared = `Granted);
  Alcotest.(check bool) "S+S" true (Lockmgr.acquire lm ~txn:2 o Shared = `Granted);
  (* S + X conflicts *)
  (match Lockmgr.acquire lm ~txn:3 o Exclusive with
  | `Would_block blockers ->
    Alcotest.(check (list int)) "blockers" [ 1; 2 ] (List.sort compare blockers)
  | _ -> Alcotest.fail "X over S should block");
  Lockmgr.release_all lm ~txn:1;
  Lockmgr.release_all lm ~txn:2;
  Lockmgr.cancel_wait lm ~txn:3;
  (* X + anything conflicts *)
  Alcotest.(check bool) "X grant" true
    (Lockmgr.acquire lm ~txn:3 o Exclusive = `Granted);
  Alcotest.(check bool) "S over X blocks" true
    (match Lockmgr.acquire lm ~txn:4 o Shared with
    | `Would_block _ -> true
    | _ -> false);
  Alcotest.(check bool) "X over X blocks" true
    (match Lockmgr.acquire lm ~txn:5 o Exclusive with
    | `Would_block _ -> true
    | _ -> false)

let test_reentrant_and_upgrade () =
  let _, lm = mk () in
  let o = obj 1 1 in
  Alcotest.(check bool) "S" true (Lockmgr.acquire lm ~txn:1 o Shared = `Granted);
  Alcotest.(check bool) "S again" true (Lockmgr.acquire lm ~txn:1 o Shared = `Granted);
  Alcotest.(check bool) "upgrade to X (sole holder)" true
    (Lockmgr.acquire lm ~txn:1 o Exclusive = `Granted);
  Alcotest.(check bool) "X then S is no-op" true
    (Lockmgr.acquire lm ~txn:1 o Shared = `Granted);
  Alcotest.(check bool) "held at X" true (Lockmgr.holds lm ~txn:1 o = Some Exclusive);
  (* Upgrade blocked when another reader exists. *)
  let o2 = obj 1 2 in
  ignore (Lockmgr.acquire lm ~txn:1 o2 Shared);
  ignore (Lockmgr.acquire lm ~txn:2 o2 Shared);
  Alcotest.(check bool) "upgrade blocks with two readers" true
    (match Lockmgr.acquire lm ~txn:1 o2 Exclusive with
    | `Would_block [ 2 ] -> true
    | _ -> false)

let test_chain_traversal () =
  let _, lm = mk () in
  ignore (Lockmgr.acquire lm ~txn:7 (obj 1 0) Shared);
  ignore (Lockmgr.acquire lm ~txn:7 (obj 1 1) Exclusive);
  ignore (Lockmgr.acquire lm ~txn:7 (obj 2 5) Shared);
  (* Three page locks plus the two files' intention locks. *)
  Alcotest.(check int) "chain length" 5 (List.length (Lockmgr.chain lm ~txn:7));
  Alcotest.(check int) "five objects locked" 5 (Lockmgr.locked_objects lm);
  Alcotest.(check bool) "file 1 intent is IX" true
    (Lockmgr.holds lm ~txn:7 (Lockmgr.File 1) = Some Lockmgr.IX);
  Alcotest.(check bool) "file 2 intent is IS" true
    (Lockmgr.holds lm ~txn:7 (Lockmgr.File 2) = Some Lockmgr.IS);
  Lockmgr.release_all lm ~txn:7;
  Alcotest.(check int) "chain empty" 0 (List.length (Lockmgr.chain lm ~txn:7));
  Alcotest.(check int) "table empty" 0 (Lockmgr.locked_objects lm)

let test_deadlock_detection () =
  let stats, lm = mk () in
  let a = obj 1 0 and b = obj 1 1 in
  ignore (Lockmgr.acquire lm ~txn:1 a Exclusive);
  ignore (Lockmgr.acquire lm ~txn:2 b Exclusive);
  (* 1 waits for b (held by 2)... *)
  Alcotest.(check bool) "1 blocks on b" true
    (match Lockmgr.acquire lm ~txn:1 b Exclusive with
    | `Would_block _ -> true
    | _ -> false);
  (* ...and 2 requesting a would close the cycle. *)
  Alcotest.(check bool) "2 on a deadlocks" true
    (Lockmgr.acquire lm ~txn:2 a Exclusive = `Deadlock);
  Alcotest.(check int) "counted" 1 (Stats.count stats "lock.deadlocks");
  (* Victim aborts; the survivor can proceed. *)
  Lockmgr.release_all lm ~txn:2;
  Alcotest.(check bool) "1 retries and wins" true
    (Lockmgr.acquire lm ~txn:1 b Exclusive = `Granted)

let test_three_party_deadlock () =
  let _, lm = mk () in
  let a = obj 1 0 and b = obj 1 1 and c = obj 1 2 in
  ignore (Lockmgr.acquire lm ~txn:1 a Exclusive);
  ignore (Lockmgr.acquire lm ~txn:2 b Exclusive);
  ignore (Lockmgr.acquire lm ~txn:3 c Exclusive);
  ignore (Lockmgr.acquire lm ~txn:1 b Exclusive);
  ignore (Lockmgr.acquire lm ~txn:2 c Exclusive);
  Alcotest.(check bool) "closing the 3-cycle detected" true
    (Lockmgr.acquire lm ~txn:3 a Exclusive = `Deadlock)

let test_early_release () =
  let _, lm = mk () in
  let o = obj 9 9 in
  ignore (Lockmgr.acquire lm ~txn:1 o Exclusive);
  Lockmgr.release lm ~txn:1 o;
  Alcotest.(check bool) "free for others" true
    (Lockmgr.acquire lm ~txn:2 o Exclusive = `Granted)

let test_wait_cleared_on_grant () =
  let _, lm = mk () in
  let o = obj 1 0 in
  ignore (Lockmgr.acquire lm ~txn:1 o Exclusive);
  ignore (Lockmgr.acquire lm ~txn:2 o Exclusive);
  Alcotest.(check bool) "2 waiting" true (Lockmgr.waiting lm ~txn:2);
  Lockmgr.release_all lm ~txn:1;
  Alcotest.(check bool) "retry wins" true (Lockmgr.acquire lm ~txn:2 o Exclusive = `Granted);
  Alcotest.(check bool) "no longer waiting" false (Lockmgr.waiting lm ~txn:2)

(* Regression: [release] used to leave other transactions' waits-for
   edges naming the releasing transaction, and [reaches] walking those
   stale edges made a later [acquire] report a spurious deadlock. The
   B-tree's lock-coupling descent releases early, so this needed no
   transaction-id reuse to fire. *)
let test_no_spurious_deadlock_after_early_release () =
  let _, lm = mk () in
  let a = obj 1 0 and b = obj 1 1 in
  ignore (Lockmgr.acquire lm ~txn:1 a Exclusive);
  ignore (Lockmgr.acquire lm ~txn:2 b Exclusive);
  (* 2 blocks on a: edge 2 -> 1. *)
  (match Lockmgr.acquire lm ~txn:2 a Exclusive with
  | `Would_block [ 1 ] -> ()
  | _ -> Alcotest.fail "expected 2 blocked by 1");
  (* 1 releases a early (lock coupling): 2's request no longer conflicts
     with anyone, so it must contribute no waits-for edges. *)
  Lockmgr.release lm ~txn:1 a;
  Alcotest.(check (list int)) "2's blockers cleared" [] (Lockmgr.blockers lm ~txn:2);
  Alcotest.(check bool) "2 dropped from the graph" false (Lockmgr.waiting lm ~txn:2);
  (* 1 requesting b must block on 2, not walk the stale 2 -> 1 edge and
     report a deadlock that isn't there. *)
  Alcotest.(check bool) "no spurious deadlock" true
    (match Lockmgr.acquire lm ~txn:1 b Exclusive with
    | `Would_block [ 2 ] -> true
    | _ -> false)

(* Same bug through the commit/abort path: release_all must re-derive the
   blocker lists of every waiter on every object it frees. *)
let test_release_all_prunes_other_waiters () =
  let _, lm = mk () in
  let a = obj 1 0 and b = obj 1 1 in
  ignore (Lockmgr.acquire lm ~txn:1 a Exclusive);
  ignore (Lockmgr.acquire lm ~txn:2 b Exclusive);
  (match Lockmgr.acquire lm ~txn:2 a Exclusive with
  | `Would_block [ 1 ] -> ()
  | _ -> Alcotest.fail "expected 2 blocked by 1");
  (* 1 aborts: everything it held is free, so 2's wait entry must go. *)
  Lockmgr.release_all lm ~txn:1;
  Alcotest.(check bool) "2 no longer waiting" false (Lockmgr.waiting lm ~txn:2);
  Alcotest.(check (list int)) "no blockers" [] (Lockmgr.blockers lm ~txn:2);
  (* A later holder of a sees 2 as a plain waiter, not a deadlock. *)
  ignore (Lockmgr.acquire lm ~txn:3 a Exclusive);
  Alcotest.(check bool) "2 blocks on the new holder" true
    (match Lockmgr.acquire lm ~txn:2 a Exclusive with
    | `Would_block [ 3 ] -> true
    | _ -> false)

(* Hierarchy unit tests ---------------------------------------------------- *)

let rec_ f p r = Lockmgr.Rec (f, p, r)

let test_intention_propagation () =
  let _, lm = mk () in
  (* A record lock plants IX/IS on both ancestors. *)
  Alcotest.(check bool) "rec X" true
    (Lockmgr.acquire lm ~txn:1 (rec_ 1 4 7) Exclusive = `Granted);
  Alcotest.(check bool) "page intent IX" true
    (Lockmgr.holds lm ~txn:1 (obj 1 4) = Some Lockmgr.IX);
  Alcotest.(check bool) "file intent IX" true
    (Lockmgr.holds lm ~txn:1 (Lockmgr.File 1) = Some Lockmgr.IX);
  (* Two writers on different records of the same page coexist (IX+IX). *)
  Alcotest.(check bool) "second writer, same page" true
    (Lockmgr.acquire lm ~txn:2 (rec_ 1 4 9) Exclusive = `Granted);
  (* A whole-page X request is stopped by the intention modes without
     enumerating the records. *)
  (match Lockmgr.acquire lm ~txn:3 (obj 1 4) Exclusive with
  | `Would_block bs ->
    Alcotest.(check (list int)) "page X sees both intents" [ 1; 2 ]
      (List.sort compare bs)
  | _ -> Alcotest.fail "page X over record holders should block");
  Lockmgr.cancel_wait lm ~txn:3;
  (* A whole-file S request conflicts with the writers' file IX. *)
  Alcotest.(check bool) "file scan blocks on writers" true
    (match Lockmgr.acquire lm ~txn:3 (Lockmgr.File 1) Shared with
    | `Would_block _ -> true
    | _ -> false);
  (* But a reader of an unrelated page sails through (IS below IX). *)
  Alcotest.(check bool) "reader elsewhere unaffected" true
    (Lockmgr.acquire lm ~txn:4 (rec_ 1 5 0) Shared = `Granted)

let test_six_upgrade () =
  let _, lm = mk () in
  (* Record X then whole-page S: the page fold lands on SIX — read the
     whole page, still intending to write one record. *)
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 2 3) Exclusive);
  Alcotest.(check bool) "page S over own IX" true
    (Lockmgr.acquire lm ~txn:1 (obj 1 2) Shared = `Granted);
  Alcotest.(check bool) "landed on SIX" true
    (Lockmgr.holds lm ~txn:1 (obj 1 2) = Some Lockmgr.SIX);
  (* SIX admits other IS, nothing stronger. *)
  Alcotest.(check bool) "IS below SIX ok" true
    (Lockmgr.acquire lm ~txn:2 (rec_ 1 2 9) Shared = `Granted);
  Alcotest.(check bool) "second writer blocks on SIX" true
    (match Lockmgr.acquire lm ~txn:3 (rec_ 1 2 5) Exclusive with
    | `Would_block _ -> true
    | _ -> false)

let test_escalation () =
  let stats, lm = mk ~escalation:3 () in
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 0) Exclusive);
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 1) Shared);
  Alcotest.(check int) "not yet" 0 (Stats.count stats "lock.escalations");
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 2) Shared);
  Alcotest.(check int) "escalated" 1 (Stats.count stats "lock.escalations");
  (* One record lock was Exclusive, so the page lock must be Exclusive;
     the record locks are gone from the chain. *)
  Alcotest.(check bool) "page X" true
    (Lockmgr.holds lm ~txn:1 (obj 1 0) = Some Lockmgr.Exclusive);
  Alcotest.(check bool) "record locks traded in" true
    (List.for_all
       (fun (o, _) -> match o with Lockmgr.Rec _ -> false | _ -> true)
       (Lockmgr.chain lm ~txn:1));
  (* The protected set survives: another transaction still cannot touch
     record 1 (now covered by the page lock). *)
  Alcotest.(check bool) "still protected" true
    (match Lockmgr.acquire lm ~txn:2 (rec_ 1 0 1) Exclusive with
    | `Would_block _ -> true
    | _ -> false)

let test_escalation_all_shared () =
  let _, lm = mk ~escalation:2 () in
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 0) Shared);
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 1) Shared);
  Alcotest.(check bool) "all-Shared escalates to page S" true
    (Lockmgr.holds lm ~txn:1 (obj 1 0) = Some Lockmgr.Shared);
  (* Page S still admits other readers. *)
  Alcotest.(check bool) "readers coexist" true
    (Lockmgr.acquire lm ~txn:2 (rec_ 1 0 5) Shared = `Granted)

let test_escalation_skipped_on_conflict () =
  let stats, lm = mk ~escalation:2 () in
  (* Another transaction reads a record on the page: its IS is fine
     below our IX, but a page X would conflict — escalation must be
     skipped, not block, and the record locks must survive. *)
  ignore (Lockmgr.acquire lm ~txn:2 (rec_ 1 0 9) Shared);
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 0) Exclusive);
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 1) Exclusive);
  Alcotest.(check int) "skipped" 1 (Stats.count stats "lock.escalations_skipped");
  Alcotest.(check int) "no escalation" 0 (Stats.count stats "lock.escalations");
  Alcotest.(check bool) "record locks intact" true
    (Lockmgr.holds lm ~txn:1 (rec_ 1 0 1) = Some Lockmgr.Exclusive)

(* A threshold below 1 would escalate every record acquire at once. *)
let test_escalation_threshold_checked () =
  List.iter
    (fun e ->
      Alcotest.check_raises
        (Printf.sprintf "escalation %d" e)
        (Invalid_argument
           (Printf.sprintf "Lockmgr.create: escalation threshold %d is below 1" e))
        (fun () -> ignore (mk ~escalation:e ())))
    [ 0; -1; min_int ];
  let stats, lm = mk ~escalation:1 () in
  ignore (Lockmgr.acquire lm ~txn:1 (rec_ 1 0 0) Shared);
  Alcotest.(check int) "threshold 1 escalates the first record" 1
    (Stats.count stats "lock.escalations")

let test_latches () =
  let stats, lm = mk () in
  let p = obj 1 0 in
  Alcotest.(check bool) "S latch" true (Lockmgr.latch lm ~owner:1 p Shared = `Granted);
  Alcotest.(check bool) "S+S latch" true (Lockmgr.latch lm ~owner:2 p Shared = `Granted);
  (match Lockmgr.latch lm ~owner:3 p Exclusive with
  | `Would_block bs ->
    Alcotest.(check (list int)) "latch blockers" [ 1; 2 ] (List.sort compare bs)
  | `Granted -> Alcotest.fail "X latch over readers should block");
  Alcotest.(check int) "latch wait counted" 1 (Stats.count stats "lock.latch_waits");
  (* Latches and locks live in separate tables: a page LOCK by another
     transaction is invisible to the latch path. *)
  Alcotest.(check bool) "lock does not see latch" true
    (Lockmgr.acquire lm ~txn:4 p Exclusive = `Granted);
  Lockmgr.unlatch lm ~owner:1 p;
  Lockmgr.unlatch lm ~owner:2 p;
  Alcotest.(check bool) "retry after unlatch" true
    (Lockmgr.latch lm ~owner:3 p Exclusive = `Granted);
  Lockmgr.release_latches lm ~owner:3;
  Alcotest.(check int) "all latches gone" 0
    (List.length (Lockmgr.latched lm ~owner:3));
  Alcotest.(check bool) "intention latch rejected" true
    (try
       ignore (Lockmgr.latch lm ~owner:5 p Lockmgr.IS);
       false
     with Invalid_argument _ -> true)

(* Model-based property: the lock manager must agree, outcome for
   outcome, with a tiny reference model whose waits-for edges are
   re-derived from the holder table at every step — i.e. [`Deadlock] is
   reported iff the request would close a cycle in the LIVE graph. A
   waiter whose conflicts have all gone is dropped from the graph (it
   would be granted on retry), exactly as the implementation does. *)
type mstate = {
  mutable mholders : ((int * int) * (int * Lockmgr.mode) list) list;
  mutable mwaits : (int * ((int * int) * Lockmgr.mode)) list;
}

let m_holders st obj = try List.assoc obj st.mholders with Not_found -> []

let m_conflicts st obj ~txn mode =
  List.filter_map
    (fun (h, hm) ->
      if h = txn then None
      else
        match (mode, hm) with
        | Lockmgr.Shared, Lockmgr.Shared -> None
        | _ -> Some h)
    (m_holders st obj)

let m_blockers st txn =
  match List.assoc_opt txn st.mwaits with
  | None -> []
  | Some (obj, mode) -> m_conflicts st obj ~txn mode

let m_reaches st start target =
  let rec go seen v =
    v = target
    || ((not (List.mem v seen))
       && List.exists (go (v :: seen)) (m_blockers st v))
  in
  go [] start

(* Drop waiters whose pending request no longer conflicts. The
   implementation does this locally on every holder-set change; since a
   request's conflicts only change when its object's holders do, a global
   sweep is equivalent. *)
let m_prune st =
  st.mwaits <-
    List.filter
      (fun (txn, (obj, mode)) -> m_conflicts st obj ~txn mode <> [])
      st.mwaits

let m_set_holder st obj txn mode =
  let hs = (txn, mode) :: List.filter (fun (h, _) -> h <> txn) (m_holders st obj) in
  st.mholders <- (obj, hs) :: List.remove_assoc obj st.mholders

let m_acquire st ~txn obj mode =
  (* A new request supersedes the transaction's pending one. *)
  st.mwaits <- List.remove_assoc txn st.mwaits;
  let held = List.assoc_opt txn (m_holders st obj) in
  match held with
  | Some Lockmgr.Exclusive -> `Granted
  | Some Lockmgr.Shared when mode = Lockmgr.Shared -> `Granted
  | _ -> (
    match m_conflicts st obj ~txn mode with
    | [] ->
      let granted_mode =
        if held = Some Lockmgr.Shared then Lockmgr.Exclusive else mode
      in
      m_set_holder st obj txn granted_mode;
      st.mwaits <- List.remove_assoc txn st.mwaits;
      m_prune st;
      `Granted
    | bs ->
      if List.exists (fun b -> m_reaches st b txn) bs then `Deadlock
      else begin
        st.mwaits <- (txn, (obj, mode)) :: List.remove_assoc txn st.mwaits;
        `Would_block (List.sort compare bs)
      end)

let m_release st ~txn obj =
  let hs = List.filter (fun (h, _) -> h <> txn) (m_holders st obj) in
  st.mholders <-
    (if hs = [] then List.remove_assoc obj st.mholders
     else (obj, hs) :: List.remove_assoc obj st.mholders);
  m_prune st

let m_release_all st ~txn =
  st.mwaits <- List.remove_assoc txn st.mwaits;
  st.mholders <-
    List.filter_map
      (fun (obj, hs) ->
        match List.filter (fun (h, _) -> h <> txn) hs with
        | [] -> None
        | hs -> Some (obj, hs))
      st.mholders;
  m_prune st

let norm = function
  | `Would_block bs -> `Would_block (List.sort compare bs)
  | (`Granted | `Deadlock) as o -> o

(* The flat (single-granularity) oracle of PR 2, now running against the
   hierarchical manager: all objects are pages of one file, so the only
   ancestor traffic is mutually compatible IS/IX on that file and the
   outcomes must still agree step for step. *)
let prop_model_deadlock_iff_live_cycle =
  Tutil.qtest ~count:500 "deadlock iff cycle in live waits-for graph"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (tup4 (int_range 0 4) (int_range 1 4) (int_bound 3) bool))
    (fun ops ->
      let _, lm = mk () in
      let st = { mholders = []; mwaits = [] } in
      List.for_all
        (fun (op, txn, page, excl) ->
          let o = (0, page) in
          let mode = if excl then Lockmgr.Exclusive else Lockmgr.Shared in
          let agree =
            match op with
            | 0 | 1 | 2 ->
              (* acquire dominates the op mix *)
              norm (Lockmgr.acquire lm ~txn (obj 0 page) mode)
              = norm (m_acquire st ~txn o mode)
            | 3 ->
              Lockmgr.release lm ~txn (obj 0 page);
              m_release st ~txn o;
              true
            | _ ->
              Lockmgr.release_all lm ~txn;
              m_release_all st ~txn;
              true
          in
          agree
          && List.for_all
               (fun t ->
                 Lockmgr.waiting lm ~txn:t = List.mem_assoc t st.mwaits
                 && List.sort compare (Lockmgr.blockers lm ~txn:t)
                    = List.sort compare (m_blockers st t))
               [ 1; 2; 3; 4 ])
        ops)

(* Hierarchical oracle ----------------------------------------------------- *)

(* Independent encodings of Gray's compatibility matrix and mode
   lattice: written as literal tables here precisely so a slip in the
   implementation's algebra cannot also hide in the oracle. *)
let h_compat a b =
  match (a, b) with
  | Lockmgr.Exclusive, _ | _, Lockmgr.Exclusive -> false
  | Lockmgr.IS, _ | _, Lockmgr.IS -> true
  | Lockmgr.IX, Lockmgr.IX -> true
  | Lockmgr.Shared, Lockmgr.Shared -> true
  | _ -> false

let h_leq a b =
  a = b
  ||
  match (a, b) with
  | Lockmgr.IS, _ -> true
  | Lockmgr.IX, (Lockmgr.SIX | Lockmgr.Exclusive) -> true
  | Lockmgr.Shared, (Lockmgr.SIX | Lockmgr.Exclusive) -> true
  | Lockmgr.SIX, Lockmgr.Exclusive -> true
  | _ -> false

let h_sup a b =
  if h_leq a b then b else if h_leq b a then a else Lockmgr.SIX

let h_intent = function
  | Lockmgr.IS | Lockmgr.Shared -> Lockmgr.IS
  | _ -> Lockmgr.IX

let h_ancestors = function
  | Lockmgr.File _ -> []
  | Lockmgr.Page (f, _) -> [ Lockmgr.File f ]
  | Lockmgr.Rec (f, p, _) -> [ Lockmgr.File f; Lockmgr.Page (f, p) ]

type hstate = {
  mutable hholders : (Lockmgr.obj * (int * Lockmgr.mode) list) list;
  mutable hwaits : (int * (Lockmgr.obj * Lockmgr.mode)) list;
}

let h_holders st o = try List.assoc o st.hholders with Not_found -> []

let h_conflicts st o ~txn mode =
  List.filter_map
    (fun (h, hm) -> if h = txn || h_compat mode hm then None else Some h)
    (h_holders st o)

let h_blockers st txn =
  match List.assoc_opt txn st.hwaits with
  | None -> []
  | Some (o, mode) -> h_conflicts st o ~txn mode

let h_reaches st start target =
  let rec go seen v =
    v = target
    || ((not (List.mem v seen))
       && List.exists (go (v :: seen)) (h_blockers st v))
  in
  go [] start

let h_prune st =
  st.hwaits <-
    List.filter (fun (txn, (o, m)) -> h_conflicts st o ~txn m <> []) st.hwaits

let h_set_holder st o txn mode =
  let hs = (txn, mode) :: List.filter (fun (h, _) -> h <> txn) (h_holders st o) in
  st.hholders <- (o, hs) :: List.remove_assoc o st.hholders

(* Mirror of [Lockmgr.acquire]'s path walk, driven by the literal
   tables: fold the requested mode over what is already held at each
   node root-first; grant where compatible, park at the first conflict,
   deadlock iff a live path leads from a blocker back to the requester. *)
let h_acquire st ~txn o mode =
  (* A new request supersedes the transaction's pending one. *)
  st.hwaits <- List.remove_assoc txn st.hwaits;
  let path = List.map (fun a -> (a, h_intent mode)) (h_ancestors o) @ [ (o, mode) ] in
  let rec walk = function
    | [] -> `Granted
    | (node, need) :: rest -> (
      let held = List.assoc_opt txn (h_holders st node) in
      let want = match held with None -> need | Some h -> h_sup h need in
      if held = Some want then walk rest
      else
        match h_conflicts st node ~txn want with
        | [] ->
          h_set_holder st node txn want;
          st.hwaits <- List.remove_assoc txn st.hwaits;
          h_prune st;
          walk rest
        | bs ->
          if List.exists (fun b -> h_reaches st b txn) bs then `Deadlock
          else begin
            st.hwaits <- (txn, (node, want)) :: List.remove_assoc txn st.hwaits;
            `Would_block (List.sort compare bs)
          end)
  in
  walk path

let h_release_all st ~txn =
  st.hwaits <- List.remove_assoc txn st.hwaits;
  st.hholders <-
    List.filter_map
      (fun (o, hs) ->
        match List.filter (fun (h, _) -> h <> txn) hs with
        | [] -> None
        | hs -> Some (o, hs))
      st.hholders;
  h_prune st

let h_release st ~txn o =
  let hs = List.filter (fun (h, _) -> h <> txn) (h_holders st o) in
  st.hholders <-
    (if hs = [] then List.remove_assoc o st.hholders
     else (o, hs) :: List.remove_assoc o st.hholders);
  h_prune st

(* Invariant (a): no two holders of any node are incompatible. *)
let inv_matrix lm txns =
  let by_obj = Hashtbl.create 16 in
  List.iter
    (fun t ->
      List.iter
        (fun (o, m) ->
          Hashtbl.replace by_obj o
            ((t, m) :: (try Hashtbl.find by_obj o with Not_found -> [])))
        (Lockmgr.chain lm ~txn:t))
    txns;
  Hashtbl.fold
    (fun _ hs acc ->
      acc
      && List.for_all
           (fun (t1, m1) ->
             List.for_all (fun (t2, m2) -> t1 = t2 || h_compat m1 m2) hs)
           hs)
    by_obj true

(* Invariant (b): every held page/record lock has the matching intention
   mode (or stronger) on each of its ancestors. *)
let inv_ancestors lm txns =
  List.for_all
    (fun t ->
      List.for_all
        (fun (o, m) ->
          List.for_all
            (fun a ->
              match Lockmgr.holds lm ~txn:t a with
              | Some am -> h_leq (h_intent m) am
              | None -> false)
            (h_ancestors o))
        (Lockmgr.chain lm ~txn:t))
    txns

let all_modes =
  [| Lockmgr.IS; Lockmgr.IX; Lockmgr.Shared; Lockmgr.SIX; Lockmgr.Exclusive |]

let gen_obj =
  QCheck2.Gen.(
    tup4 (int_bound 2) (int_bound 1) (int_bound 1) (int_bound 1)
    >|= fun (level, f, p, r) ->
    match level with
    | 0 -> Lockmgr.File f
    | 1 -> Lockmgr.Page (f, p)
    | _ -> Lockmgr.Rec (f, p, r))

(* The full hierarchical property: random acquire/release/upgrade
   sequences over files, pages and records in all five modes, across
   four transactions. The manager must agree with the oracle outcome for
   outcome — in particular [`Deadlock] iff the live waits-for graph
   (whose edges may pass through intention holders) has a cycle — and
   the matrix/ancestor invariants must hold after every step. *)
let prop_hierarchical_model =
  Tutil.qtest ~count:500 "hierarchical oracle: outcomes, edges, invariants"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (tup4 (int_range 0 6) (int_range 1 4) gen_obj (int_bound 4)))
    (fun ops ->
      let _, lm = mk () in
      let st = { hholders = []; hwaits = [] } in
      let txns = [ 1; 2; 3; 4 ] in
      List.for_all
        (fun (op, txn, o, m) ->
          let mode = all_modes.(m) in
          let agree =
            match op with
            | 0 | 1 | 2 | 3 | 4 ->
              norm (Lockmgr.acquire lm ~txn o mode) = norm (h_acquire st ~txn o mode)
            | 5 ->
              (* Early release is legal only while no held lock depends
                 on it: releasing an ancestor intent out from under a
                 held record/page lock is caller error (the access
                 methods never do it), so the generator skips those. *)
              let has_descendant =
                List.exists
                  (fun (node, hs) ->
                    List.mem_assoc txn hs && List.mem o (h_ancestors node))
                  st.hholders
              in
              if not has_descendant then begin
                Lockmgr.release lm ~txn o;
                h_release st ~txn o
              end;
              true
            | _ ->
              Lockmgr.release_all lm ~txn;
              h_release_all st ~txn;
              true
          in
          agree
          && List.for_all
               (fun t ->
                 Lockmgr.waiting lm ~txn:t = List.mem_assoc t st.hwaits
                 && List.sort compare (Lockmgr.blockers lm ~txn:t)
                    = List.sort compare (h_blockers st t))
               txns
          && inv_matrix lm txns && inv_ancestors lm txns)
        ops)

(* Invariant (c): escalation trades record locks for a page lock that
   covers the same records at least as strongly. Tracked against a
   ledger of every record grant; checked after every operation. *)
let prop_escalation_preserves_protection =
  Tutil.qtest ~count:500 "escalation preserves the protected-record set"
    QCheck2.Gen.(
      list_size (int_range 1 40)
        (tup4 (int_range 0 6) (int_range 1 3)
           (tup3 (int_bound 1) (int_bound 1) (int_bound 3))
           bool))
    (fun ops ->
      let _, lm = mk ~escalation:3 () in
      let txns = [ 1; 2; 3 ] in
      (* (txn, rec-obj) -> strongest mode ever granted *)
      let ledger : (int * Lockmgr.obj, Lockmgr.mode) Hashtbl.t =
        Hashtbl.create 16
      in
      let covered t o m =
        let covers node =
          match Lockmgr.holds lm ~txn:t node with
          | Some held -> h_leq m held
          | None -> false
        in
        match o with
        | Lockmgr.Rec (f, p, _) -> covers o || covers (Lockmgr.Page (f, p))
        | _ -> assert false
      in
      List.for_all
        (fun (op, txn, (f, p, r), excl) ->
          let o = Lockmgr.Rec (f, p, r) in
          let mode = if excl then Lockmgr.Exclusive else Lockmgr.Shared in
          (if op >= 6 then begin
             Lockmgr.release_all lm ~txn;
             Hashtbl.iter
               (fun (t, o) _ -> if t = txn then Hashtbl.remove ledger (t, o))
               (Hashtbl.copy ledger)
           end
           else
             match Lockmgr.acquire lm ~txn o mode with
             | `Granted ->
               let prev =
                 match Hashtbl.find_opt ledger (txn, o) with
                 | Some m -> m
                 | None -> mode
               in
               Hashtbl.replace ledger (txn, o) (h_sup prev mode)
             | `Would_block _ ->
               Lockmgr.cancel_wait lm ~txn
             | `Deadlock -> ());
          Hashtbl.fold
            (fun (t, o) m acc -> acc && covered t o m)
            ledger true
          && inv_matrix lm txns && inv_ancestors lm txns)
        ops)

let prop_release_all_empties =
  Tutil.qtest "release_all leaves no residue"
    QCheck2.Gen.(list (tup3 (int_range 1 4) (int_bound 8) bool))
    (fun reqs ->
      let _, lm = mk () in
      List.iter
        (fun (txn, page, excl) ->
          let mode = if excl then Lockmgr.Exclusive else Lockmgr.Shared in
          ignore (Lockmgr.acquire lm ~txn (obj 0 page) mode))
        reqs;
      List.iter (fun txn -> Lockmgr.release_all lm ~txn) [ 1; 2; 3; 4 ];
      Lockmgr.locked_objects lm = 0)

(* Targeted interleaving property for [release_all] chain ordering: while
   walking the releasing transaction's chain, revalidating the waiters of
   a *later* object must not resurrect a wait entry that the *first*
   released object already cleared. Observable invariant, checked after
   every single operation of a random acquire/release_all interleaving:
   (a) nobody's blocker list ever names a transaction that holds nothing,
   and (b) a transaction whose pending request conflicts with no current
   holder is not waiting at all — i.e. no stale waits-for edges, in
   either direction, at any interleaving point. *)
let prop_release_all_no_stale_edges =
  let txns = [ 1; 2; 3; 4; 5 ] in
  Tutil.qtest ~count:500 "release_all interleavings leave no stale edges"
    QCheck2.Gen.(
      list_size (int_range 1 50)
        (tup4 (int_range 1 5) (int_bound 5) bool (int_bound 6)))
    (fun ops ->
      let _, lm = mk () in
      (* Track the holder table ourselves so "holds nothing" and "no
         conflict" are judged against ground truth, not the unit under
         test. Page locks of one file only, so the file node adds
         mutually compatible intents — but "holds nothing" must include
         them, hence holders are read back from the chain. *)
      let holders : ((int * int), (int * Lockmgr.mode) list) Hashtbl.t =
        Hashtbl.create 16
      in
      let holds_nothing t = Lockmgr.chain lm ~txn:t = [] in
      let pending : (int, (int * int) * Lockmgr.mode) Hashtbl.t =
        Hashtbl.create 8
      in
      let conflicts t =
        match Hashtbl.find_opt pending t with
        | None -> []
        | Some (o, mode) ->
          List.filter
            (fun (h, hm) ->
              h <> t && not (mode = Lockmgr.Shared && hm = Lockmgr.Shared))
            (try Hashtbl.find holders o with Not_found -> [])
      in
      let invariant () =
        List.for_all
          (fun t ->
            List.for_all (fun b -> not (holds_nothing b)) (Lockmgr.blockers lm ~txn:t)
            && ((not (Lockmgr.waiting lm ~txn:t)) || conflicts t <> []))
          txns
      in
      List.for_all
        (fun (txn, page, excl, action) ->
          (* Bias toward acquires; release_all fires on ~2/7 of the ops so
             chains of several objects build up before a release walks
             them. *)
          (if action >= 5 then begin
             Lockmgr.release_all lm ~txn;
             Hashtbl.remove pending txn;
             Hashtbl.iter
               (fun o hs ->
                 Hashtbl.replace holders o
                   (List.filter (fun (h, _) -> h <> txn) hs))
               (Hashtbl.copy holders)
           end
           else
             let o = (0, page) in
             let mode = if excl then Lockmgr.Exclusive else Lockmgr.Shared in
             let held =
               List.assoc_opt txn (try Hashtbl.find holders o with Not_found -> [])
             in
             let noop =
               held = Some Lockmgr.Exclusive
               || (held = Some Lockmgr.Shared && mode = Lockmgr.Shared)
             in
             match Lockmgr.acquire lm ~txn (obj 0 page) mode with
             | `Granted when noop ->
               (* Re-entrant no-op: the lock table is untouched, so any
                  pending request elsewhere stays pending. *)
               ()
             | `Granted ->
               let hs =
                 (try Hashtbl.find holders o with Not_found -> [])
                 |> List.filter (fun (h, _) -> h <> txn)
               in
               let granted =
                 match Lockmgr.holds lm ~txn (obj 0 page) with
                 | Some m -> m
                 | None -> mode
               in
               Hashtbl.replace holders o ((txn, granted) :: hs);
               Hashtbl.remove pending txn
             | `Would_block _ -> Hashtbl.replace pending txn (o, mode)
             | `Deadlock -> ());
          invariant ())
        ops)

let prop_shared_never_conflicts =
  Tutil.qtest "readers never conflict"
    QCheck2.Gen.(list (pair (int_range 1 6) (int_bound 10)))
    (fun reqs ->
      let _, lm = mk () in
      List.for_all
        (fun (txn, page) -> Lockmgr.acquire lm ~txn (obj 0 page) Shared = `Granted)
        reqs)

let () =
  Alcotest.run "tx_lock"
    [
      ( "locks",
        [
          Alcotest.test_case "compatibility" `Quick test_compatibility_matrix;
          Alcotest.test_case "reentrancy/upgrade" `Quick test_reentrant_and_upgrade;
          Alcotest.test_case "chains" `Quick test_chain_traversal;
          Alcotest.test_case "deadlock" `Quick test_deadlock_detection;
          Alcotest.test_case "3-party deadlock" `Quick test_three_party_deadlock;
          Alcotest.test_case "early release" `Quick test_early_release;
          Alcotest.test_case "wait cleared" `Quick test_wait_cleared_on_grant;
          Alcotest.test_case "stale edge after early release" `Quick
            test_no_spurious_deadlock_after_early_release;
          Alcotest.test_case "stale edge after release_all" `Quick
            test_release_all_prunes_other_waiters;
        ] );
      ( "hierarchy",
        [
          Alcotest.test_case "intention propagation" `Quick test_intention_propagation;
          Alcotest.test_case "SIX upgrade" `Quick test_six_upgrade;
          Alcotest.test_case "escalation" `Quick test_escalation;
          Alcotest.test_case "escalation all-shared" `Quick test_escalation_all_shared;
          Alcotest.test_case "escalation skipped on conflict" `Quick
            test_escalation_skipped_on_conflict;
          Alcotest.test_case "escalation threshold below 1" `Quick
            test_escalation_threshold_checked;
          Alcotest.test_case "latches" `Quick test_latches;
        ] );
      ( "properties",
        [
          prop_model_deadlock_iff_live_cycle;
          prop_hierarchical_model;
          prop_escalation_preserves_protection;
          prop_release_all_no_stale_edges;
          prop_release_all_empties;
          prop_shared_never_conflicts;
        ] );
    ]
