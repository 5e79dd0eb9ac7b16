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

(* [=] on objects without the polymorphic compare call. *)
let obj_equal a b =
  match (a, b) with
  | File f, File f' -> f = f'
  | Page (f, p), Page (f', p') -> f = f' && p = p'
  | Rec (f, p, r), Rec (f', p', r') -> f = f' && p = p' && r = r'
  | (File _ | Page _ | Rec _), _ -> false

(* The tables hash the object's ints directly: the polymorphic
   [Hashtbl.hash] and [compare] are C calls that walk the value, and a
   record-grain TPC-B transaction makes a dozen or more lock requests.
   The tables index by the low bits, so the mix multiplies by an odd
   constant before folding in each int. *)
module Objtbl = Hashtbl.Make (struct
  type t = obj

  let equal = obj_equal
  let mix h x = (h * 0x100000001b3) lxor x

  let hash = function
    | File f -> mix 1 f
    | Page (f, p) -> mix (mix 2 f) p
    | Rec (f, p, r) -> mix (mix (mix 3 f) p) r
end)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal (a : int) b = a = b
  let hash (x : int) = x
end)

(* A node of the lock (or latch) table: who holds it, and the requests
   waiting on it. *)
type entry = {
  mutable holders : (int * mode) list;
  mutable waiters : wait list;
}

(* A blocked request: the node it waits on, what the transaction asked
   for (already folded with anything it holds, so [w_mode] is the mode
   it needs granted) and who currently stands in the way. Keeping the
   node and mode (not just the blocker list) lets every holder-set
   change re-derive the blockers, so the waits-for graph never carries
   stale edges. [w_seq] orders wakes (see [wake_order]). *)
and wait = {
  w_txn : int;
  w_entry : entry;
  w_mode : mode;
  mutable w_blockers : int list;
  w_seq : int;
}

(* The pending requests against one table, by requester. [seq] stamps
   each new wait; [buckets] is the bucket count a stdlib [Hashtbl]
   created at 32 would have after holding these waits (see
   [wake_order]). *)
type waits = {
  by_txn : wait Itbl.t;
  mutable seq : int;
  mutable buckets : int;
}

type t = {
  clock : Clock.t;
  stats : Stats.t;
  cpu : Config.cpu;
  escalation : int;
  table : entry Objtbl.t;
  chains : (obj * mode) list ref Itbl.t;
  waits : waits;
  (* Short-term physical latches live in their own table: Shared or
     Exclusive only, no deadlock detection (acquisition is strictly
     top-down and latch holders never block on locks, so latch waits
     always make progress). *)
  latch_table : entry Objtbl.t;
  latch_chains : (obj * mode) list ref Itbl.t;
  latch_waits : waits;
  (* Processes parked in [acquire_blocking]/[latch_blocking], keyed by
     the requesting transaction (or latch owner); a request whose wait
     edges clear wakes its process. *)
  parked : Sched.cond Itbl.t;
  k_lock_blocks : Stats.counter;
  k_lock_wait : Stats.timer;
  k_lock_wait_hist : Stats.series;
  k_latch_blocks : Stats.counter;
  k_latch_wait : Stats.timer;
}

let k_waits_cleared = Stats.counter "lock.waits_cleared"
let k_conflicts = Stats.counter "lock.conflicts"
let k_deadlocks = Stats.counter "lock.deadlocks"
let k_waits = Stats.counter "lock.waits"
let k_escalations_skipped = Stats.counter "lock.escalations_skipped"
let k_escalations = Stats.counter "lock.escalations"
let k_acquires = Stats.counter "lock.acquires"
let k_latch_waits = Stats.counter "lock.latch_waits"

let waits_create () = { by_txn = Itbl.create 32; seq = 0; buckets = 32 }

let create ?(escalation = max_int) ?(metrics = "lock") clock stats cpu =
  if escalation < 1 then
    invalid_arg
      (Printf.sprintf "Lockmgr.create: escalation threshold %d is below 1"
         escalation);
  {
    clock;
    stats;
    cpu;
    escalation;
    table = Objtbl.create 256;
    chains = Itbl.create 32;
    waits = waits_create ();
    latch_table = Objtbl.create 64;
    latch_chains = Itbl.create 32;
    latch_waits = waits_create ();
    parked = Itbl.create 8;
    k_lock_blocks = Stats.counter (metrics ^ ".lock_blocks");
    k_lock_wait = Stats.timer (metrics ^ ".lock_wait");
    k_lock_wait_hist = Stats.series (metrics ^ ".lock_wait");
    k_latch_blocks = Stats.counter (metrics ^ ".latch_blocks");
    k_latch_wait = Stats.timer (metrics ^ ".latch_wait");
  }

let charge t = Cpu.charge t.clock t.stats t.cpu Cpu.Lock_op

let chain_ref chains txn =
  match Itbl.find_opt chains txn with
  | Some r -> r
  | None ->
    let r = ref [] in
    Itbl.add chains txn r;
    r

let entry_for table obj =
  match Objtbl.find_opt table obj with
  | Some e -> e
  | None ->
    let e = { holders = []; waiters = [] } in
    Objtbl.add table obj e;
    e

let rec held txn = function
  | [] -> None
  | (h, m) :: rest -> if h = txn then Some m else held txn rest

let holds t ~txn obj =
  match Objtbl.find_opt t.table obj with
  | None -> None
  | Some e -> held txn e.holders

let chain t ~txn =
  match Itbl.find_opt t.chains txn with Some r -> !r | None -> []

let locked_objects t = Objtbl.length t.table

let waiting t ~txn = Itbl.mem t.waits.by_txn txn

(* Would granting [mode] to [txn] conflict with the current holders? *)
let conflicts e ~txn mode =
  let rec go = function
    | [] -> []
    | (holder, hmode) :: rest ->
      if holder = txn || compatible mode hmode then go rest
      else holder :: go rest
  in
  go e.holders

(* DFS over the waits-for graph: is [target] reachable from [start]? *)
let reaches t start target =
  (* Waits-for chains are short: a visited list beats a table. *)
  let seen = ref [] in
  let rec go v =
    v = target
    || (not (List.exists (fun s -> s = v) !seen))
       && begin
         seen := v :: !seen;
         match Itbl.find_opt t.waits.by_txn v with
         | None -> false
         | Some w -> List.exists go w.w_blockers
       end
  in
  go start

let blockers t ~txn =
  match Itbl.find_opt t.waits.by_txn txn with
  | Some w -> w.w_blockers
  | None -> []

let obj_fields obj =
  match obj with
  | File f -> [ ("file", Trace.I f) ]
  | Page (f, p) -> [ ("file", Trace.I f); ("page", Trace.I p) ]
  | Rec (f, p, r) ->
    [ ("file", Trace.I f); ("page", Trace.I p); ("rec", Trace.I r) ]

let unlink w =
  let e = w.w_entry in
  e.waiters <- List.filter (fun w' -> w' != w) e.waiters

let remove_wait ws txn =
  match Itbl.find_opt ws.by_txn txn with
  | None -> ()
  | Some w ->
    unlink w;
    Itbl.remove ws.by_txn txn

(* Register [txn]'s request on [e]. A request that replaces a pending
   one keeps its insertion stamp, as a stdlib [Hashtbl.replace] keeps
   the binding's place in its bucket. *)
let add_wait ws ~txn e mode blockers =
  let seq =
    match Itbl.find_opt ws.by_txn txn with
    | Some old ->
      unlink old;
      old.w_seq
    | None ->
      ws.seq <- ws.seq + 1;
      if Itbl.length ws.by_txn + 1 > 2 * ws.buckets then
        ws.buckets <- 2 * ws.buckets;
      ws.seq
  in
  let w =
    { w_txn = txn; w_entry = e; w_mode = mode; w_blockers = blockers; w_seq = seq }
  in
  e.waiters <- w :: e.waiters;
  Itbl.replace ws.by_txn txn w

(* The order in which waiters cleared together are woken. It is the
   order the manager used when its waits lived in one stdlib
   [(int, wait) Hashtbl.t] and a release collected the cleared waiters
   by iterating that table into a list (so in reverse): by bucket
   [Hashtbl.hash txn land (buckets - 1)], highest first, and within a
   bucket oldest insertion first. The stdlib starts such a table at 32
   buckets, doubles it once it holds more than twice that many waits,
   and never shrinks it. Which woken process retries first decides
   who gets a contended lock, so the simulated results depend on this
   order: waking in FIFO order instead moves cleaner-mpl8-90's latency
   percentiles. *)
let wake_order ws = function
  | ([] | [ _ ]) as cleared -> cleared
  | cleared ->
    let mask = ws.buckets - 1 in
    let bucket w = Hashtbl.hash w.w_txn land mask in
    List.sort
      (fun a b ->
        match Int.compare (bucket b) (bucket a) with
        | 0 -> Int.compare a.w_seq b.w_seq
        | c -> c)
      cleared

(* The holder set of [e] changed: recompute each of its waiters'
   blocker lists from the live holders. A wait whose request no longer
   conflicts is dropped entirely — the waiter would be granted on retry,
   so it must contribute no waits-for edges — and its process woken.
   Without this, a release or abort left other transactions' blocker
   lists naming a transaction that no longer stood in their way, and
   [reaches] walking those stale edges made [acquire] report spurious
   deadlocks. *)
let revalidate t ws e =
  match e.waiters with
  | [] -> ()
  | waiters -> (
    let cleared, kept =
      List.partition
        (fun w ->
          match conflicts e ~txn:w.w_txn w.w_mode with
          | [] -> true
          | bs ->
            w.w_blockers <- bs;
            false)
        waiters
    in
    match cleared with
    | [] -> ()
    | _ ->
      e.waiters <- kept;
      List.iter
        (fun w ->
          Itbl.remove ws.by_txn w.w_txn;
          Stats.bump t.stats k_waits_cleared;
          match Itbl.find_opt t.parked w.w_txn with
          | Some c -> Sched.wake t.clock c
          | None -> ())
        (wake_order ws cleared))

(* Record [txn] as a holder of [e] (the node of [obj]) at [mode], or
   upgrade it in place, in both the table and the chain. The requester
   has no pending wait left. The new holder may block waiters that
   previously conflicted only with others (or with nobody, if they were
   about to be re-granted). *)
let grant t chains ws e ~txn obj mode =
  let r = chain_ref chains txn in
  (match held txn e.holders with
  | None ->
    e.holders <- (txn, mode) :: e.holders;
    r := (obj, mode) :: !r
  | Some _ ->
    e.holders <-
      List.map (fun (h, m) -> if h = txn then (h, mode) else (h, m)) e.holders;
    r := List.map (fun (o, m) -> if obj_equal o obj then (o, mode) else (o, m)) !r);
  revalidate t ws e

(* Drop [txn] from [obj]'s holders (and [obj] from [chains]) and
   revalidate the node's waiters. *)
let release_node t table ws chains ~txn obj =
  match Objtbl.find_opt table obj with
  | None -> ()
  | Some e ->
    e.holders <- List.filter (fun (h, _) -> h <> txn) e.holders;
    (match e.holders with [] -> Objtbl.remove table obj | _ :: _ -> ());
    Option.iter
      (fun r -> r := List.filter (fun (o, _) -> not (obj_equal o obj)) !r)
      chains;
    revalidate t ws e

(* One node of the hierarchy. [mode] is folded with whatever the
   transaction already holds there ([sup]), so a Shared request by an IX
   holder correctly asks for SIX. *)
let acquire_node t ~txn obj mode =
  let e = entry_for t.table obj in
  let cur = held txn e.holders in
  let target = match cur with None -> mode | Some h -> sup h mode in
  match cur with
  | Some h when h = target -> `Granted
  | _ -> (
    match conflicts e ~txn target with
    | [] ->
      grant t t.chains t.waits e ~txn obj target;
      `Granted
    | blockers ->
      Stats.bump t.stats k_conflicts;
      (* Would waiting close a cycle? *)
      if List.exists (fun b -> reaches t b txn) blockers then begin
        Stats.bump t.stats k_deadlocks;
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
        add_wait t.waits ~txn e target blockers;
        Stats.bump t.stats k_waits;
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "lock.wait"
            (("txn", Trace.I txn) :: obj_fields obj
            @ [
                ( "blockers",
                  Trace.S (String.concat "," (List.map string_of_int blockers))
                );
              ]);
        `Would_block blockers
      end)

(* Lock escalation: once a transaction holds [t.escalation] or more
   record locks on one page, trade them for a single page lock (Shared
   if every record lock is Shared, else Exclusive) and release the
   record locks. Escalation never blocks: if the page grant would
   conflict — some other transaction holds record locks under the page,
   hence an intention mode on it — it is simply skipped and retried on
   the next record acquire. *)
let maybe_escalate t ~txn file page =
  if t.escalation <> max_int then begin
    let on_page (o, _) =
      match o with Rec (f, p, _) -> f = file && p = page | _ -> false
    in
    let locks = chain t ~txn in
    let n = List.fold_left (fun n l -> if on_page l then n + 1 else n) 0 locks in
    if n >= t.escalation then begin
      let recs = List.filter on_page locks in
      let want =
        if List.for_all (fun (_, m) -> leq m Shared) recs then Shared
        else Exclusive
      in
      let page_obj = Page (file, page) in
      let e = entry_for t.table page_obj in
      let target =
        match held txn e.holders with None -> want | Some h -> sup h want
      in
      match conflicts e ~txn target with
      | _ :: _ -> Stats.bump t.stats k_escalations_skipped
      | [] ->
        grant t t.chains t.waits e ~txn page_obj target;
        let chains = Itbl.find_opt t.chains txn in
        List.iter
          (fun (o, _) -> release_node t t.table t.waits chains ~txn o)
          recs;
        Stats.bump t.stats k_escalations;
        if Stats.tracing t.stats then
          Stats.emit t.stats ~time:(Clock.now t.clock) "lock.escalate"
            (("txn", Trace.I txn) :: obj_fields page_obj
            @ [ ("recs", Trace.I n) ])
    end
  end

(* Public acquire: walk the ancestor path root-first taking intention
   locks, then the target node itself. A block anywhere parks the
   request at that node; already-granted ancestors stay held, and the
   retried acquire re-walks the path as no-ops. *)
let acquire t ~txn obj mode =
  charge t;
  Stats.bump t.stats k_acquires;
  (* A transaction has one outstanding request at a time: issuing a new
     acquire supersedes any pending one, so its stale edges must not
     linger in the waits-for graph (a deadlocked walk registers no new
     wait, and a grant would otherwise leave the old entry in place). *)
  remove_wait t.waits txn;
  let intent = intent_of mode in
  let rec go = function
    | [] -> (
      match acquire_node t ~txn obj mode with
      | `Granted ->
        (match obj with
        | Rec (f, p, _) -> maybe_escalate t ~txn f p
        | _ -> ());
        `Granted
      | r -> r)
    | a :: rest -> (
      match acquire_node t ~txn a intent with
      | `Granted -> go rest
      | r -> r)
  in
  go (ancestors obj)

let release t ~txn obj =
  charge t;
  release_node t t.table t.waits (Itbl.find_opt t.chains txn) ~txn obj

let cancel_wait t ~txn =
  remove_wait t.waits txn;
  remove_wait t.latch_waits txn

let release_all t ~txn =
  (* Drop our own pending request first so revalidation below never
     treats the departing transaction as a live waiter. *)
  remove_wait t.waits txn;
  match Itbl.find_opt t.chains txn with
  | None -> ()
  | Some r ->
    List.iter
      (fun (obj, _) ->
        charge t;
        release_node t t.table t.waits None ~txn obj)
      !r;
    Itbl.remove t.chains txn

(* ---- Latches ------------------------------------------------------ *)

let latch t ~owner obj mode =
  charge t;
  (match mode with
  | Shared | Exclusive -> ()
  | _ -> invalid_arg "Lockmgr.latch: latches are Shared or Exclusive");
  let e = entry_for t.latch_table obj in
  let cur = held owner e.holders in
  let target = match cur with None -> mode | Some h -> sup h mode in
  match cur with
  | Some h when h = target -> `Granted
  | _ -> (
    match conflicts e ~txn:owner target with
    | [] ->
      remove_wait t.latch_waits owner;
      grant t t.latch_chains t.latch_waits e ~txn:owner obj target;
      `Granted
    | blockers ->
      add_wait t.latch_waits ~txn:owner e target blockers;
      Stats.bump t.stats k_latch_waits;
      `Would_block blockers)

let unlatch t ~owner obj =
  charge t;
  release_node t t.latch_table t.latch_waits
    (Itbl.find_opt t.latch_chains owner)
    ~txn:owner obj

let release_latches t ~owner =
  remove_wait t.latch_waits owner;
  match Itbl.find_opt t.latch_chains owner with
  | None -> ()
  | Some r ->
    List.iter
      (fun (obj, _) ->
        charge t;
        release_node t t.latch_table t.latch_waits None ~txn:owner obj)
      !r;
    Itbl.remove t.latch_chains owner

let latched t ~owner =
  match Itbl.find_opt t.latch_chains owner with Some r -> !r | None -> []

(* ---- Parking ------------------------------------------------------ *)

(* A request that must wait parks its process — "descheduled and left
   sleeping" (Section 4.2) — until revalidation clears its wait edges;
   the caller then retries. The context switch and the time parked are
   charged to [blocks]/[wait], and sampled into [hist] if given. *)
let park ?hist t sched ~txn ~blocks ~wait =
  Cpu.charge t.clock t.stats t.cpu Cpu.Context_switch;
  Stats.bump t.stats blocks;
  let c = Sched.condition () in
  Itbl.replace t.parked txn c;
  let t0 = Clock.now t.clock in
  Sched.wait sched c;
  Itbl.remove t.parked txn;
  let dt = Clock.now t.clock -. t0 in
  Stats.add_to t.stats wait dt;
  Option.iter (fun h -> Stats.observe_at t.stats h dt) hist

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
      park t sched ~txn ~blocks:t.k_lock_blocks ~wait:t.k_lock_wait
        ~hist:t.k_lock_wait_hist;
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
      park t sched ~txn:owner ~blocks:t.k_latch_blocks ~wait:t.k_latch_wait;
      match latch t ~owner obj mode with
      | `Granted -> ()
      | `Would_block _ -> retry ()
    in
    retry ()
