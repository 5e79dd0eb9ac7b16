type mode = IS | IX | Shared | SIX | Exclusive

type obj =
  | File of int
  | Page of int * int
  | Rec of int * int * int

type outcome = [ `Granted | `Would_block of int list | `Deadlock ]

exception Blocked_outside_process of int * int list

let () =
  Printexc.register_printer (function
    | Blocked_outside_process (txn, blockers) ->
      Some
        (Printf.sprintf
           "Lockmgr.Blocked_outside_process: txn %d must wait for %s, but no \
            scheduler process is running to park"
           txn
           (String.concat "," (List.map string_of_int blockers)))
    | _ -> None)

(* Gray's multi-granularity compatibility matrix. *)
let compatible a b =
  match (a, b) with
  | IS, Exclusive | Exclusive, IS -> false
  | IS, _ | _, IS -> true
  | IX, IX -> true
  | Shared, Shared -> true
  | _ -> false

(* Partial order of lock strength: IS < IX < X, IS < S < SIX < X,
   IX < SIX. *)
let leq a b =
  match (a, b) with
  | IS, _ -> true
  | _, Exclusive -> true
  | IX, (IX | SIX) -> true
  | Shared, (Shared | SIX) -> true
  | SIX, SIX -> true
  | _ -> false

(* Least upper bound; the only incomparable pair is {S, IX}, whose
   supremum is SIX. *)
let sup a b = if leq a b then b else if leq b a then a else SIX

(* The intention mode a request implies on every ancestor node. *)
let intent_of = function
  | IS | Shared -> IS
  | IX | SIX | Exclusive -> IX

(* Root-first ancestor path in the file -> page -> record name space. *)
let ancestors = function
  | File _ -> []
  | Page (f, _) -> [ File f ]
  | Rec (f, p, _) -> [ File f; Page (f, p) ]

type entry = { mutable holders : (int * mode) list }

(* A blocked request: what the transaction asked for (already folded
   with anything it holds, so [w_mode] is the mode it needs granted) and
   who currently stands in the way. Keeping the object and mode (not
   just the blocker list) lets every holder-set change re-derive the
   blockers, so the waits-for graph never carries stale edges. *)
type wait = { w_obj : obj; w_mode : mode; mutable w_blockers : int list }

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cpu : Config.cpu;
  escalation : int;
  table : (obj, entry) Hashtbl.t;
  chains : (int, (obj * mode) list ref) Hashtbl.t;
  waits_for : (int, wait) Hashtbl.t;
  (* Short-term physical latches live in their own table: Shared or
     Exclusive only, no deadlock detection (acquisition is strictly
     top-down and latch holders never block on locks, so latch waits
     always make progress). *)
  latch_table : (obj, entry) Hashtbl.t;
  latch_chains : (int, (obj * mode) list ref) Hashtbl.t;
  latch_waits : (int, wait) Hashtbl.t;
  (* Processes parked in [acquire_blocking]/[latch_blocking], keyed by
     the requesting transaction (or latch owner); a request whose wait
     edges clear wakes its process. *)
  parked : (int, Sched.cond) Hashtbl.t;
  k_lock_blocks : string;
  k_lock_wait : string;
  k_latch_blocks : string;
  k_latch_wait : string;
}

let create ?(escalation = max_int) ?(metrics = "lock") clock stats cpu =
  {
    clock;
    stats;
    cpu;
    escalation;
    table = Hashtbl.create 256;
    chains = Hashtbl.create 32;
    waits_for = Hashtbl.create 32;
    latch_table = Hashtbl.create 64;
    latch_chains = Hashtbl.create 32;
    latch_waits = Hashtbl.create 32;
    parked = Hashtbl.create 8;
    k_lock_blocks = metrics ^ ".lock_blocks";
    k_lock_wait = metrics ^ ".lock_wait";
    k_latch_blocks = metrics ^ ".latch_blocks";
    k_latch_wait = metrics ^ ".latch_wait";
  }

let charge t = Cpu.charge t.clock t.stats t.cpu Cpu.Lock_op

let chain_ref tbl txn =
  match Hashtbl.find_opt tbl txn with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.add tbl txn r;
    r

let holds t ~txn obj =
  match Hashtbl.find_opt t.table obj with
  | None -> None
  | Some e -> List.assoc_opt txn e.holders

let chain t ~txn =
  match Hashtbl.find_opt t.chains txn with Some r -> !r | None -> []

let locked_objects t = Hashtbl.length t.table

let waiting t ~txn = Hashtbl.mem t.waits_for txn

(* Would granting [mode] to [txn] conflict with the current holders? *)
let conflicts e ~txn mode =
  List.filter_map
    (fun (holder, hmode) ->
      if holder = txn then None
      else if compatible mode hmode then None
      else Some holder)
    e.holders

(* DFS over the waits-for graph: is [target] reachable from [start]? *)
let reaches t start target =
  let seen = Hashtbl.create 8 in
  let rec go v =
    v = target
    || (not (Hashtbl.mem seen v))
       && begin
         Hashtbl.add seen v ();
         match Hashtbl.find_opt t.waits_for v with
         | None -> false
         | Some w -> List.exists go w.w_blockers
       end
  in
  go start

let blockers t ~txn =
  match Hashtbl.find_opt t.waits_for txn with
  | Some w -> w.w_blockers
  | None -> []

let obj_fields obj =
  match obj with
  | File f -> [ ("file", Trace.I f) ]
  | Page (f, p) -> [ ("file", Trace.I f); ("page", Trace.I p) ]
  | Rec (f, p, r) ->
    [ ("file", Trace.I f); ("page", Trace.I p); ("rec", Trace.I r) ]

(* The holder set of [obj] changed: recompute every waiter-on-[obj]'s
   blocker list from the live table. A wait whose request no longer
   conflicts is dropped entirely — the waiter would be granted on retry,
   so it must contribute no waits-for edges. Without this, a release or
   abort left other transactions' blocker lists naming a transaction
   that no longer stood in their way, and [reaches] walking those stale
   edges made [acquire] report spurious deadlocks. *)
let revalidate_table t ~table ~waits obj =
  let cleared = ref [] in
  Hashtbl.iter
    (fun waiter w ->
      if w.w_obj = obj then
        match Hashtbl.find_opt table obj with
        | None -> cleared := waiter :: !cleared
        | Some e -> (
          match conflicts e ~txn:waiter w.w_mode with
          | [] -> cleared := waiter :: !cleared
          | bs -> w.w_blockers <- bs))
    waits;
  List.iter
    (fun waiter ->
      Hashtbl.remove waits waiter;
      Stats.incr t.stats "lock.waits_cleared";
      match Hashtbl.find_opt t.parked waiter with
      | Some c -> Sched.wake t.clock c
      | None -> ())
    !cleared

let revalidate_waiters t obj =
  revalidate_table t ~table:t.table ~waits:t.waits_for obj

let record_grant t ~txn obj mode =
  let e =
    match Hashtbl.find_opt t.table obj with
    | Some e -> e
    | None ->
      let e = { holders = [] } in
      Hashtbl.add t.table obj e;
      e
  in
  let r = chain_ref t.chains txn in
  (match List.assoc_opt txn e.holders with
  | None ->
    e.holders <- (txn, mode) :: e.holders;
    r := (obj, mode) :: !r
  | Some _ ->
    (* Upgrade in place, in both the table and the chain. *)
    e.holders <-
      List.map (fun (h, m) -> if h = txn then (h, mode) else (h, m)) e.holders;
    r := List.map (fun (o, m) -> if o = obj then (o, mode) else (o, m)) !r);
  Hashtbl.remove t.waits_for txn;
  (* The new holder may block waiters that previously conflicted only
     with others (or with nobody, if they were about to be re-granted). *)
  revalidate_waiters t obj

let remove_holder t ~txn obj =
  match Hashtbl.find_opt t.table obj with
  | None -> ()
  | Some e ->
    e.holders <- List.filter (fun (h, _) -> h <> txn) e.holders;
    if e.holders = [] then Hashtbl.remove t.table obj

(* One node of the hierarchy. [mode] is folded with whatever the
   transaction already holds there ([sup]), so a Shared request by an IX
   holder correctly asks for SIX. *)
let acquire_node t ~txn obj mode =
  let e =
    match Hashtbl.find_opt t.table obj with
    | Some e -> e
    | None ->
      let e = { holders = [] } in
      Hashtbl.add t.table obj e;
      e
  in
  let target =
    match List.assoc_opt txn e.holders with
    | None -> mode
    | Some held -> sup held mode
  in
  if List.assoc_opt txn e.holders = Some target then `Granted
  else
    match conflicts e ~txn target with
    | [] ->
      record_grant t ~txn obj target;
      `Granted
    | blockers ->
      Stats.incr t.stats "lock.conflicts";
      (* Would waiting close a cycle? *)
      if List.exists (fun b -> reaches t b txn) blockers then begin
        Stats.incr t.stats "lock.deadlocks";
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "lock.deadlock"
            (("txn", Trace.I txn) :: obj_fields obj
            @ [
                ( "blockers",
                  Trace.S (String.concat "," (List.map string_of_int blockers))
                );
              ]);
        `Deadlock
      end
      else begin
        Hashtbl.replace t.waits_for txn
          { w_obj = obj; w_mode = target; w_blockers = blockers };
        Stats.incr t.stats "lock.waits";
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "lock.wait"
            (("txn", Trace.I txn) :: obj_fields obj
            @ [
                ( "blockers",
                  Trace.S (String.concat "," (List.map string_of_int blockers))
                );
              ]);
        `Would_block blockers
      end

(* Lock escalation: once a transaction holds [t.escalation] or more
   record locks on one page, trade them for a single page lock (Shared
   if every record lock is Shared, else Exclusive) and release the
   record locks. Escalation never blocks: if the page grant would
   conflict — some other transaction holds record locks under the page,
   hence an intention mode on it — it is simply skipped and retried on
   the next record acquire. *)
let maybe_escalate t ~txn file page =
  if t.escalation <> max_int then begin
    let recs =
      List.filter
        (fun (o, _) ->
          match o with Rec (f, p, _) -> f = file && p = page | _ -> false)
        (chain t ~txn)
    in
    if List.length recs >= t.escalation then begin
      let want =
        if List.for_all (fun (_, m) -> leq m Shared) recs then Shared
        else Exclusive
      in
      let page_obj = Page (file, page) in
      let held = holds t ~txn page_obj in
      let target = match held with None -> want | Some h -> sup h want in
      let blocked =
        match Hashtbl.find_opt t.table page_obj with
        | None -> []
        | Some e -> conflicts e ~txn target
      in
      match blocked with
      | _ :: _ -> Stats.incr t.stats "lock.escalations_skipped"
      | [] ->
        record_grant t ~txn page_obj target;
        List.iter
          (fun (o, _) ->
            remove_holder t ~txn o;
            (match Hashtbl.find_opt t.chains txn with
            | None -> ()
            | Some r -> r := List.filter (fun (o', _) -> o' <> o) !r);
            revalidate_waiters t o)
          recs;
        Stats.incr t.stats "lock.escalations";
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "lock.escalate"
            (("txn", Trace.I txn) :: obj_fields page_obj
            @ [ ("recs", Trace.I (List.length recs)) ])
    end
  end

(* Public acquire: walk the ancestor path root-first taking intention
   locks, then the target node itself. A block anywhere parks the
   request at that node; already-granted ancestors stay held, and the
   retried acquire re-walks the path as no-ops. *)
let acquire t ~txn obj mode =
  charge t;
  Stats.incr t.stats "lock.acquires";
  (* A transaction has one outstanding request at a time: issuing a new
     acquire supersedes any pending one, so its stale edges must not
     linger in the waits-for graph (a deadlocked walk registers no new
     wait, and a grant deep in the ancestor path would otherwise clear
     the old entry only as a side effect). *)
  Hashtbl.remove t.waits_for txn;
  let intent = intent_of mode in
  let path = List.map (fun a -> (a, intent)) (ancestors obj) @ [ (obj, mode) ] in
  let rec go = function
    | [] ->
      (match obj with
      | Rec (f, p, _) -> maybe_escalate t ~txn f p
      | _ -> ());
      `Granted
    | (node, m) :: rest -> (
      match acquire_node t ~txn node m with
      | `Granted -> go rest
      | (`Would_block _ | `Deadlock) as r -> r)
  in
  go path

let release t ~txn obj =
  charge t;
  remove_holder t ~txn obj;
  (match Hashtbl.find_opt t.chains txn with
  | None -> ()
  | Some r -> r := List.filter (fun (o, _) -> o <> obj) !r);
  revalidate_waiters t obj

let cancel_wait t ~txn =
  Hashtbl.remove t.waits_for txn;
  Hashtbl.remove t.latch_waits txn

let release_all t ~txn =
  (* Drop our own pending request first so revalidation below never
     treats the departing transaction as a live waiter. *)
  Hashtbl.remove t.waits_for txn;
  match Hashtbl.find_opt t.chains txn with
  | None -> ()
  | Some r ->
    List.iter
      (fun (obj, _) ->
        charge t;
        remove_holder t ~txn obj;
        revalidate_waiters t obj)
      !r;
    Hashtbl.remove t.chains txn

(* ---- Latches ------------------------------------------------------ *)

let latch t ~owner obj mode =
  charge t;
  (match mode with
  | Shared | Exclusive -> ()
  | _ -> invalid_arg "Lockmgr.latch: latches are Shared or Exclusive");
  let e =
    match Hashtbl.find_opt t.latch_table obj with
    | Some e -> e
    | None ->
      let e = { holders = [] } in
      Hashtbl.add t.latch_table obj e;
      e
  in
  let target =
    match List.assoc_opt owner e.holders with
    | None -> mode
    | Some held -> sup held mode
  in
  if List.assoc_opt owner e.holders = Some target then `Granted
  else
    match conflicts e ~txn:owner target with
    | [] ->
      let r = chain_ref t.latch_chains owner in
      (match List.assoc_opt owner e.holders with
      | None ->
        e.holders <- (owner, target) :: e.holders;
        r := (obj, target) :: !r
      | Some _ ->
        e.holders <-
          List.map
            (fun (h, m) -> if h = owner then (h, target) else (h, m))
            e.holders;
        r := List.map (fun (o, m) -> if o = obj then (o, target) else (o, m)) !r);
      Hashtbl.remove t.latch_waits owner;
      revalidate_table t ~table:t.latch_table ~waits:t.latch_waits obj;
      `Granted
    | blockers ->
      Hashtbl.replace t.latch_waits owner
        { w_obj = obj; w_mode = target; w_blockers = blockers };
      Stats.incr t.stats "lock.latch_waits";
      `Would_block blockers

let remove_latch_holder t ~owner obj =
  match Hashtbl.find_opt t.latch_table obj with
  | None -> ()
  | Some e ->
    e.holders <- List.filter (fun (h, _) -> h <> owner) e.holders;
    if e.holders = [] then Hashtbl.remove t.latch_table obj

let unlatch t ~owner obj =
  charge t;
  remove_latch_holder t ~owner obj;
  (match Hashtbl.find_opt t.latch_chains owner with
  | None -> ()
  | Some r -> r := List.filter (fun (o, _) -> o <> obj) !r);
  revalidate_table t ~table:t.latch_table ~waits:t.latch_waits obj

let release_latches t ~owner =
  Hashtbl.remove t.latch_waits owner;
  match Hashtbl.find_opt t.latch_chains owner with
  | None -> ()
  | Some r ->
    List.iter
      (fun (obj, _) ->
        charge t;
        remove_latch_holder t ~owner obj;
        revalidate_table t ~table:t.latch_table ~waits:t.latch_waits obj)
      !r;
    Hashtbl.remove t.latch_chains owner

let latched t ~owner =
  match Hashtbl.find_opt t.latch_chains owner with Some r -> !r | None -> []

(* ---- Parking ------------------------------------------------------ *)

(* A request that must wait parks its process — "descheduled and left
   sleeping" (Section 4.2) — until revalidation clears its wait edges;
   the caller then retries. The context switch and the time parked are
   charged to [blocks]/[wait]. *)
let park t sched ~txn ~blocks ~wait ~hist =
  Cpu.charge t.clock t.stats t.cpu Cpu.Context_switch;
  Stats.incr t.stats blocks;
  let c = Sched.condition () in
  Hashtbl.replace t.parked txn c;
  let t0 = Clock.now t.clock in
  Sched.wait sched c;
  Hashtbl.remove t.parked txn;
  let dt = Clock.now t.clock -. t0 in
  Stats.add_time t.stats wait dt;
  if hist then Stats.observe t.stats wait dt

(* Only a scheduler process can wait; anywhere else a conflict means
   two transactions were interleaved without one. *)
let scheduler_for t ~txn blockers =
  match Sched.current t.clock with
  | Some sched -> sched
  | None -> raise (Blocked_outside_process (txn, blockers))

let acquire_blocking ?(on_wait = ignore) t ~txn obj mode =
  match acquire t ~txn obj mode with
  | (`Granted | `Deadlock) as r -> r
  | `Would_block blockers ->
    let sched = scheduler_for t ~txn blockers in
    on_wait ();
    let rec retry () =
      park t sched ~txn ~blocks:t.k_lock_blocks ~wait:t.k_lock_wait ~hist:true;
      match acquire t ~txn obj mode with
      | `Granted -> `Waited
      | `Would_block _ -> retry ()
      | `Deadlock -> `Deadlock
    in
    retry ()

let latch_blocking t ~owner obj mode =
  match latch t ~owner obj mode with
  | `Granted -> ()
  | `Would_block blockers ->
    let sched = scheduler_for t ~txn:owner blockers in
    let rec retry () =
      park t sched ~txn:owner ~blocks:t.k_latch_blocks ~wait:t.k_latch_wait
        ~hist:false;
      match latch t ~owner obj mode with
      | `Granted -> ()
      | `Would_block _ -> retry ()
    in
    retry ()
