(* Two-fiber interleaving tests for the record-grain locking protocol
   under the discrete-event scheduler: the classic S->X upgrade race
   (one deadlock victim, no lost update) and lock escalation racing a
   concurrent lock request on the same page. The scheduler is
   deterministic (FIFO at equal times), so each test scripts one exact
   interleaving with yields and condition variables. *)

let record_cfg ?escalation () =
  let cfg = Tutil.small_config () in
  let fs =
    {
      cfg.Config.fs with
      Config.lock_grain = `Record;
      Config.lock_escalation =
        (match escalation with
        | Some e -> e
        | None -> cfg.Config.fs.Config.lock_escalation);
    }
  in
  { cfg with Config.fs = fs }

let mk_env cfg =
  let m = Tutil.machine ~cfg () in
  let fs = Lfs.format m.Tutil.disks m.Tutil.clock m.Tutil.stats m.Tutil.cfg in
  let v = Lfs.vfs fs in
  let env =
    Libtp.open_env m.Tutil.clock m.Tutil.stats m.Tutil.cfg v ~pool_pages:32
      ~checkpoint_every:1000 ~log_path:"/wal.log" ()
  in
  (m, env)

(* Both fibers read a shared counter under a Shared record lock, then
   upgrade to Exclusive to write back read+1. With both holding S,
   neither upgrade can be granted and the second request closes a
   2-cycle: exactly one fiber must be chosen as deadlock victim
   (aborted, restarted), and the survivor's [`Restart] forces a re-read
   — so the final value must be 2, never the lost-update 1. *)
let test_upgrade_race () =
  let m, env = mk_env (record_cfg ()) in
  let sched = Sched.create m.Tutil.clock in
  let o = Lockmgr.Rec (1, 0, 5) in
  let v = ref 0 in
  let deadlocks = ref 0 in
  let commits = ref 0 in
  let worker () =
    let rec attempt () =
      let txn = Libtp.begin_txn env in
      match
        try
          ignore (Libtp.lock_restartable env txn o Lockmgr.Shared);
          let read = !v in
          (* Let the other fiber take its shared lock too. *)
          Sched.yield sched;
          let read =
            match Libtp.lock_restartable env txn o Lockmgr.Exclusive with
            | `Granted -> read
            | `Restart ->
              (* We parked; the snapshot may be stale. Re-read under the
                 now-held exclusive lock. *)
              !v
          in
          `Write read
        with Libtp.Deadlock_abort _ ->
          incr deadlocks;
          `Retry
      with
      | `Write read ->
        v := read + 1;
        Libtp.commit env txn;
        incr commits
      | `Retry ->
        (* Back off before retrying so the survivor (already woken by
           our abort) upgrades and commits first. *)
        Sched.yield sched;
        attempt ()
    in
    attempt ()
  in
  Sched.spawn sched worker;
  Sched.spawn sched worker;
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check int) "exactly one deadlock victim" 1 !deadlocks;
  Alcotest.(check int) "deadlock counted once" 1
    (Stats.count m.Tutil.stats "lock.deadlocks");
  Alcotest.(check int) "both committed" 2 !commits;
  Alcotest.(check int) "no lost update" 2 !v

(* Escalation racing concurrent lock traffic on the same page.

   Phase 1 (skip): fiber B holds one Shared record lock on the page —
   and with it a Page IS intent — so when fiber A's third record lock
   trips the threshold, the page Exclusive would conflict: escalation
   must be skipped (never block) and A's record locks survive
   untouched. This is also why a parked record-acquirer blocks
   escalation outright: its Page IX is already planted before it waits
   at the record node.

   Phase 2 (swap vs. waiter): fiber C requests the whole page Shared
   and parks at the page node (holding only File IS, which conflicts
   with nothing). A's next record lock then escalates for real: the
   swap trades A's record locks for a page Exclusive while C waits on
   that very node, and C must not slip through — its grant may come
   only after A commits. *)
let test_escalation_race () =
  let m, env = mk_env (record_cfg ~escalation:3 ()) in
  let sched = Sched.create m.Tutil.clock in
  let lm = Libtp.locks env in
  let stats = m.Tutil.stats in
  let rec_ r = Lockmgr.Rec (1, 0, r) in
  (* flag+condition rendezvous: [await] parks until [set] fires. *)
  let mk_flag () = (ref false, Sched.condition ()) in
  let set (f, c) =
    f := true;
    Sched.broadcast sched c
  in
  let await (f, c) =
    while not !f do
      Sched.wait sched c
    done
  in
  let b_locked = mk_flag () in
  let b_may_commit = mk_flag () in
  let b_done = mk_flag () in
  let c_go = mk_flag () in
  let a_committed = ref false in
  let c_granted = ref false in
  let fiber_b () =
    let txn = Libtp.begin_txn env in
    ignore (Libtp.lock_restartable env txn (rec_ 9) Lockmgr.Shared);
    set b_locked;
    await b_may_commit;
    Libtp.commit env txn;
    set b_done
  in
  let fiber_c () =
    await c_go;
    let txn = Libtp.begin_txn env in
    (* A holds Page (1,0) IX under its record locks: park here. The wait
       must survive A's escalation replacing those record locks with a
       page lock on this very node. *)
    ignore
      (Libtp.lock_restartable env txn (Lockmgr.Page (1, 0)) Lockmgr.Shared);
    c_granted := true;
    Alcotest.(check bool) "granted only after A committed" true !a_committed;
    Libtp.commit env txn
  in
  let fiber_a () =
    await b_locked;
    let txn = Libtp.begin_txn env in
    let id = Libtp.txn_id txn in
    ignore (Libtp.lock_restartable env txn (rec_ 0) Lockmgr.Exclusive);
    ignore (Libtp.lock_restartable env txn (rec_ 1) Lockmgr.Exclusive);
    ignore (Libtp.lock_restartable env txn (rec_ 2) Lockmgr.Exclusive);
    (* Threshold reached, but B's Page IS makes the page Exclusive
       ungrantable: skipped, record locks intact. *)
    Alcotest.(check int) "escalation skipped under conflict" 1
      (Stats.count stats "lock.escalations_skipped");
    Alcotest.(check int) "no escalation yet" 0
      (Stats.count stats "lock.escalations");
    Alcotest.(check bool) "record locks intact" true
      (Lockmgr.holds lm ~txn:id (rec_ 1) = Some Lockmgr.Exclusive);
    set b_may_commit;
    await b_done;
    (* Start C; it runs up to its page request and parks there. *)
    set c_go;
    Sched.yield sched;
    Alcotest.(check bool) "C parked at the page" true
      ((not !c_granted) && Lockmgr.waiting lm ~txn:(id + 1));
    ignore (Libtp.lock_restartable env txn (rec_ 3) Lockmgr.Exclusive);
    Alcotest.(check int) "escalated once the intent cleared" 1
      (Stats.count stats "lock.escalations");
    Alcotest.(check bool) "page lock covers the records" true
      (Lockmgr.holds lm ~txn:id (Lockmgr.Page (1, 0)) = Some Lockmgr.Exclusive);
    Alcotest.(check bool) "record locks traded in" true
      (List.for_all
         (fun (o, _) -> match o with Lockmgr.Rec _ -> false | _ -> true)
         (Lockmgr.chain lm ~txn:id));
    (* C parked across the swap must still be waiting, now on us. *)
    Alcotest.(check bool) "waiter did not slip through the swap" false
      !c_granted;
    a_committed := true;
    Libtp.commit env txn
  in
  Sched.spawn sched fiber_b;
  Sched.spawn sched fiber_a;
  Sched.spawn sched fiber_c;
  Sched.run sched;
  Sched.detach sched;
  Alcotest.(check bool) "C completed" true !c_granted

(* Model test: the lock manager against [Lockmgr_ref], a verbatim copy
   of the manager as it stood before its tables became monomorphic and
   its waiters were indexed by their lock. Both run the same random
   script of scheduler processes; every grant, park and wake, with its
   simulated time, and the observable lock state after every step must
   agree. The scripts mix blocking acquires at all three levels
   (deadlock victims release everything), early releases, commits,
   latches taken top-down, and bursts of non-blocking whole-file
   requests that are left pending: those fill the wait table past 64
   entries, where the wake order of waiters cleared together depends on
   the table having grown. *)
module type LOCKMGR = sig
  type mode = IS | IX | Shared | SIX | Exclusive

  type obj = File of int | Page of int * int | Rec of int * int * int

  type t

  val create :
    ?escalation:int -> ?metrics:string -> Clock.t -> Stats.t -> Config.cpu -> t

  val acquire :
    t ->
    txn:int ->
    obj ->
    mode ->
    [ `Granted | `Would_block of int list | `Deadlock ]

  val acquire_blocking :
    ?on_wait:(unit -> unit) ->
    t ->
    txn:int ->
    obj ->
    mode ->
    [ `Granted | `Waited | `Deadlock ]

  val release : t -> txn:int -> obj -> unit
  val release_all : t -> txn:int -> unit
  val holds : t -> txn:int -> obj -> mode option
  val chain : t -> txn:int -> (obj * mode) list
  val locked_objects : t -> int
  val waiting : t -> txn:int -> bool
  val blockers : t -> txn:int -> int list
  val latch_blocking : t -> owner:int -> obj -> mode -> unit
  val unlatch : t -> owner:int -> obj -> unit
  val release_latches : t -> owner:int -> unit
end

(* A node as (level, file, page, record): level 0 = file, 1 = page,
   2 = record. *)
type node = int * int * int * int

type op =
  | Lock of node * int  (** blocking acquire; mode index into IS..X *)
  | Release of node
  | Commit  (** release_all, then start a new transaction *)
  | Latch of node list * bool * bool
      (** latch the nodes top-down (exclusive?), think, then drop them
          all at once (release_latches?) or one by one *)
  | Try of int * int
      (** [(file, n)]: [n] fresh transactions each ask for the whole
          file Exclusive without blocking; those that would block are
          left waiting *)
  | Think of int

let show_node (l, f, p, r) =
  match l with
  | 0 -> Printf.sprintf "F%d" f
  | 1 -> Printf.sprintf "P%d.%d" f p
  | _ -> Printf.sprintf "R%d.%d.%d" f p r

let show_op = function
  | Lock (n, m) -> Printf.sprintf "lock %s %d" (show_node n) m
  | Release n -> "release " ^ show_node n
  | Commit -> "commit"
  | Latch (ns, x, all) ->
    Printf.sprintf "latch [%s] %s %s"
      (String.concat ";" (List.map show_node ns))
      (if x then "X" else "S")
      (if all then "all" else "each")
  | Try (f, n) -> Printf.sprintf "try F%d x%d" f n
  | Think d -> Printf.sprintf "think %d" d

module Replay (L : LOCKMGR) = struct
  let mode_of = function
    | 0 -> L.IS
    | 1 -> L.IX
    | 2 -> L.Shared
    | 3 -> L.SIX
    | _ -> L.Exclusive

  let show_mode = function
    | L.IS -> "IS"
    | L.IX -> "IX"
    | L.Shared -> "S"
    | L.SIX -> "SIX"
    | L.Exclusive -> "X"

  let obj_of (l, f, p, r) =
    match l with 0 -> L.File f | 1 -> L.Page (f, p) | _ -> L.Rec (f, p, r)

  let show_obj = function
    | L.File f -> show_node (0, f, 0, 0)
    | L.Page (f, p) -> show_node (1, f, p, 0)
    | L.Rec (f, p, r) -> show_node (2, f, p, r)

  let ints l = String.concat "," (List.map string_of_int l)

  (* The log of one run: an event line per grant, park and wake, each
     followed by the state it leaves. *)
  let run ~escalation (scripts : op list list) =
    let clock = Clock.create () in
    let stats = Stats.create () in
    let lm = L.create ?escalation clock stats Config.default.Config.cpu in
    let sched = Sched.create clock in
    let log = ref [] in
    let next_txn = ref 0 in
    let fresh () =
      incr next_txn;
      !next_txn
    in
    let nprocs = List.length scripts in
    let current = Array.make nprocs 0 in
    let pending = ref [] in
    let txn_state txn =
      Printf.sprintf "%d:%s[%s]{%s}" txn
        (if L.waiting lm ~txn then "w" else "-")
        (ints (L.blockers lm ~txn))
        (String.concat ";"
           (List.map
              (fun (o, m) -> show_obj o ^ "=" ^ show_mode m)
              (L.chain lm ~txn)))
    in
    let event pid what node =
      let o = Option.map obj_of node in
      let holds =
        match o with
        | None -> ""
        | Some o ->
          String.concat ","
            (Array.to_list
               (Array.map
                  (fun txn ->
                    match L.holds lm ~txn o with
                    | None -> "-"
                    | Some m -> show_mode m)
                  current))
      in
      log :=
        Printf.sprintf "%.6f p%d %s | %d | %s | %s" (Clock.now clock) pid what
          (L.locked_objects lm) holds
          (String.concat " " (Array.to_list (Array.map txn_state current)))
        :: !log
    in
    let proc pid script () =
      current.(pid) <- fresh ();
      let restart () =
        L.release_all lm ~txn:current.(pid);
        current.(pid) <- fresh ()
      in
      List.iter
        (fun op ->
          match op with
          | Lock (n, m) -> (
            let txn = current.(pid) in
            let on_wait () = event pid ("park " ^ show_op op) (Some n) in
            match L.acquire_blocking ~on_wait lm ~txn (obj_of n) (mode_of m) with
            | `Granted -> event pid ("granted " ^ show_op op) (Some n)
            | `Waited -> event pid ("woken " ^ show_op op) (Some n)
            | `Deadlock ->
              event pid ("deadlock " ^ show_op op) (Some n);
              restart ())
          | Release n ->
            L.release lm ~txn:current.(pid) (obj_of n);
            event pid (show_op op) (Some n)
          | Commit ->
            restart ();
            event pid (show_op op) None
          | Latch (ns, x, all) ->
            let owner = current.(pid) in
            let m = if x then L.Exclusive else L.Shared in
            List.iter
              (fun n ->
                L.latch_blocking lm ~owner (obj_of n) m;
                event pid ("latched " ^ show_node n) (Some n))
              ns;
            Sched.delay sched 0.001;
            if all then L.release_latches lm ~owner
            else List.iter (fun n -> L.unlatch lm ~owner (obj_of n)) ns;
            event pid ("unlatched " ^ show_op op) None
          | Try (f, k) ->
            for _ = 1 to k do
              let txn = fresh () in
              match L.acquire lm ~txn (L.File f) L.Exclusive with
              | `Granted -> L.release_all lm ~txn
              | `Would_block _ | `Deadlock -> pending := txn :: !pending
            done;
            event pid (show_op op) None
          | Think d -> Sched.delay sched (0.001 *. float_of_int d))
        script;
      L.release_all lm ~txn:current.(pid);
      event pid "done" None
    in
    List.iteri (fun pid script -> Sched.spawn sched (proc pid script)) scripts;
    (try Sched.run sched with Sched.Stalled n -> event 0 (Printf.sprintf "stalled %d" n) None);
    Sched.detach sched;
    (* The requests left pending: which are still waiting, on whom. *)
    log :=
      Printf.sprintf "pending %s"
        (String.concat " " (List.rev_map txn_state !pending))
      :: !log;
    List.rev !log
end

module Model = Replay (Lockmgr_ref)
module Impl = Replay (Lockmgr)

let gen_node =
  QCheck2.Gen.(tup4 (int_range 0 2) (int_range 1 2) (int_bound 1) (int_bound 2))

(* Latches are taken top-down (in node order) so latch waits always
   make progress. *)
let gen_latch_nodes =
  QCheck2.Gen.(
    map
      (fun ns -> List.sort_uniq compare ns)
      (list_size (int_range 1 2)
         (map (fun (f, p) -> (1, f, p, 0)) (pair (int_range 1 2) (int_bound 1)))))

let gen_op =
  QCheck2.Gen.(
    frequency
      [
        (6, map2 (fun n m -> Lock (n, m)) gen_node (int_bound 4));
        (1, map (fun n -> Release n) gen_node);
        (2, pure Commit);
        ( 1,
          map3 (fun ns x all -> Latch (ns, x, all)) gen_latch_nodes bool bool );
        (2, map2 (fun f n -> Try (f, n)) (int_range 1 2) (int_range 1 16));
        (2, map (fun d -> Think d) (int_bound 3));
      ])

let gen_script =
  QCheck2.Gen.(
    pair
      (oneofl [ None; Some 2; Some 3 ])
      (list_size (int_range 2 16) (list_size (int_range 1 10) gen_op)))

let print_script (escalation, scripts) =
  Printf.sprintf "escalation %s\n%s"
    (match escalation with None -> "none" | Some e -> string_of_int e)
    (String.concat "\n"
       (List.mapi
          (fun pid ops ->
            Printf.sprintf "p%d: %s" pid
              (String.concat ", " (List.map show_op ops)))
          scripts))

let prop_matches_reference =
  QCheck2.Test.make ~count:300 ~name:"lock manager matches the reference"
    ~print:print_script gen_script (fun (escalation, scripts) ->
      let want = Model.run ~escalation scripts in
      let got = Impl.run ~escalation scripts in
      let rec first_diff i = function
        | w :: ws, g :: gs ->
          if String.equal w g then first_diff (i + 1) (ws, gs)
          else QCheck2.Test.fail_reportf "step %d:\n want %s\n got  %s" i w g
        | [], [] -> true
        | w :: _, [] -> QCheck2.Test.fail_reportf "step %d: missing %s" i w
        | [], g :: _ -> QCheck2.Test.fail_reportf "step %d: extra %s" i g
      in
      first_diff 0 (want, got))

let () =
  Alcotest.run "tx_locksched"
    [
      ( "interleavings",
        [
          Alcotest.test_case "S->X upgrade race" `Quick test_upgrade_race;
          Alcotest.test_case "escalation vs concurrent acquire" `Quick
            test_escalation_race;
        ] );
      ("reference model", [ QCheck_alcotest.to_alcotest prop_matches_reference ]);
    ]
