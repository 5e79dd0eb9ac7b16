type scale = { accounts : int; tellers : int; branches : int }

let scale_for_tps tps =
  if tps <= 0 then invalid_arg "Tpcb.scale_for_tps: tps must be positive";
  { accounts = 100_000 * tps; tellers = 10 * tps; branches = tps }

type backend = User of Libtp.t | Kernel of Ktxn.t

type db = {
  scale : scale;
  acct : Vfs.fd;
  tell : Vfs.fd;
  br : Vfs.fd;
  hist : Vfs.fd;
}

(* Record formats: 100-byte balance records keyed by a 10-digit decimal
   id; 50-byte fixed history records. *)

let record_bytes = 100
let history_bytes = 50

let key10 id = Printf.sprintf "%010d" id

let balance_value balance =
  let head = Printf.sprintf "%020d" balance in
  head ^ String.make (record_bytes - String.length head) '.'

let parse_balance v = int_of_string (String.sub v 0 20)

let history_record ~account ~teller ~branch ~delta =
  let head = Printf.sprintf "%010d%05d%05d%+015d" account teller branch delta in
  Bytes.of_string (head ^ String.make (history_bytes - String.length head) '.')

let paths = ("/tpcb/account", "/tpcb/teller", "/tpcb/branch", "/tpcb/history")

let open_db (vfs : Vfs.t) ~scale =
  let pa, pt, pb, ph = paths in
  {
    scale;
    acct = vfs.Vfs.open_file pa;
    tell = vfs.Vfs.open_file pt;
    br = vfs.Vfs.open_file pb;
    hist = vfs.Vfs.open_file ph;
  }

let build clock stats cfg (vfs : Vfs.t) ~rng ~scale =
  ignore rng;
  let pa, pt, pb, ph = paths in
  vfs.Vfs.mkdir "/tpcb";
  List.iter (fun p -> ignore (vfs.Vfs.create p)) [ pa; pt; pb; ph ];
  let db = open_db vfs ~scale in
  let load fd n =
    let bt = Btree.attach clock stats cfg.Config.cpu (Pager.plain vfs fd) in
    for id = 0 to n - 1 do
      Btree.insert bt (key10 id) (balance_value 0)
    done
  in
  load db.acct scale.accounts;
  load db.tell scale.tellers;
  load db.br scale.branches;
  ignore
    (Recno.attach clock stats cfg.Config.cpu (Pager.plain vfs db.hist)
       ~reclen:history_bytes);
  vfs.Vfs.sync ();
  db

let protect_all db ktxn =
  ignore db;
  let pa, pt, pb, ph = paths in
  List.iter (fun p -> Ktxn.protect ktxn p) [ pa; pt; pb; ph ]

type result = {
  txns : int;
  elapsed_s : float;
  tps : float;
  max_latency_s : float;
  latencies_s : float array;
}

(* One TPC-B transaction: update account, teller and branch balances and
   append a history record, all under one transaction. *)
let execute clock stats cfg db backend ~account ~teller ~branch ~delta =
  let cpu = cfg.Config.cpu in
  let adjust tbl bt key =
    let balance =
      match Btree.find bt key with
      | Some v -> parse_balance v
      | None -> failwith ("TPC-B: missing " ^ tbl ^ " record " ^ key)
    in
    Btree.insert bt key (balance_value (balance + delta))
  in
  match backend with
  | User env ->
    let txn = Libtp.begin_txn env in
    let bt fd = Btree.attach clock stats cpu (Pager.wal env txn fd) in
    adjust "acct" (bt db.acct) (key10 account);
    adjust "tell" (bt db.tell) (key10 teller);
    adjust "br" (bt db.br) (key10 branch);
    let hist =
      Recno.attach clock stats cpu (Pager.wal env txn db.hist)
        ~reclen:history_bytes
    in
    ignore (Recno.append hist (history_record ~account ~teller ~branch ~delta));
    Libtp.commit env txn
  | Kernel k ->
    let txn = Ktxn.txn_begin k in
    let bt fd = Btree.attach clock stats cpu (Ktxn.pager k txn ~inum:fd) in
    adjust "acct" (bt db.acct) (key10 account);
    adjust "tell" (bt db.tell) (key10 teller);
    adjust "br" (bt db.br) (key10 branch);
    let hist =
      Recno.attach clock stats cpu (Ktxn.pager k txn ~inum:db.hist)
        ~reclen:history_bytes
    in
    ignore (Recno.append hist (history_record ~account ~teller ~branch ~delta));
    Ktxn.txn_commit k txn

type multi_result = {
  base : result;
  conflicts : int;
  deadlocks : int;
  restarts : int;
}

(* The one TPC-B driver. [start worker] runs the worker loop: inline for
   [run], as [mpl] scheduler processes for [run_sched]. Each copy claims
   transactions from a shared counter until [n] have been issued, draws
   their parameters from the shared [rng] stream, and retries a deadlock
   victim with fresh ones. With the scheduler's deterministic
   tie-breaking a seeded run is reproducible.

   The history append is TPC-B's built-in hotspot: every transaction
   extends the same tail page, and under page-grain 2PL that lock is
   held through the commit flush, so at most one committer can ever be
   in flight and group commit degenerates to batches of one. Record
   granularity ([fs.lock_grain = `Record]) is the real fix: appenders
   lock only their own slot, so committers overlap on the single shared
   history file. *)
let drive clock stats cfg db backend ~rng ~n ~start =
  Stats.declare stats "tpcb.txn";
  let blocks () =
    Stats.count stats "ktxn.lock_blocks" + Stats.count stats "txn.lock_blocks"
  in
  let blocks0 = blocks () in
  let deadlocks = ref 0 in
  let latencies = ref [] in
  let issued = ref 0 and committed = ref 0 in
  let t0 = Clock.now clock in
  let worker () =
    while !issued < n do
      incr issued;
      let rec attempt () =
        let account = Rng.int rng db.scale.accounts in
        let teller = Rng.int rng db.scale.tellers in
        let branch = teller * db.scale.branches / db.scale.tellers in
        let delta = Rng.int rng 1_999_999 - 999_999 in
        let start = Clock.now clock in
        match
          execute clock stats cfg db backend ~account ~teller ~branch ~delta
        with
        | () ->
          incr committed;
          let lat = Clock.now clock -. start in
          latencies := lat :: !latencies;
          Stats.incr stats "tpcb.commits";
          Stats.observe stats "tpcb.txn" lat
        | exception (Libtp.Deadlock_abort _ | Ktxn.Deadlock_abort _) ->
          incr deadlocks;
          Stats.incr stats "tpcb.deadlocks";
          Stats.incr stats "tpcb.restarts";
          attempt ()
      in
      attempt ()
    done
  in
  start worker;
  (* Any deferred group commit belongs to the measured run. Under the
     scheduler the last batch's rendezvous completes inside [Sched.run]
     (its timeout process fires while the committers are parked), so
     this only matters for the inline run. *)
  (match backend with Kernel k -> Ktxn.flush_commits k | User _ -> ());
  let elapsed = Clock.now clock -. t0 in
  let latencies_s = Array.of_list (List.rev !latencies) in
  {
    base =
      {
        txns = !committed;
        elapsed_s = elapsed;
        tps =
          (if elapsed > 0.0 then float_of_int !committed /. elapsed else 0.0);
        max_latency_s = Array.fold_left Float.max 0.0 latencies_s;
        latencies_s;
      };
    conflicts = blocks () - blocks0;
    deadlocks = !deadlocks;
    restarts = !deadlocks;
  }

let run clock stats cfg db backend ~rng ~n =
  (drive clock stats cfg db backend ~rng ~n ~start:(fun worker -> worker ()))
    .base

let run_sched clock stats cfg db backend ~rng ~n ~mpl =
  if mpl <= 0 then invalid_arg "Tpcb.run_sched: mpl must be positive";
  let sched =
    match Sched.of_clock clock with
    | Some s -> s
    | None -> invalid_arg "Tpcb.run_sched: no scheduler attached to the clock"
  in
  drive clock stats cfg db backend ~rng ~n ~start:(fun worker ->
      for _ = 1 to mpl do
        Sched.spawn sched worker
      done;
      Sched.run sched)

(* Non-transactional inspection ------------------------------------------- *)

let sum_balances clock stats cfg vfs fd =
  let bt = Btree.attach clock stats cfg.Config.cpu (Pager.plain vfs fd) in
  let total = ref 0 in
  Btree.iter bt (fun _ v ->
      total := !total + parse_balance v;
      true);
  !total

let account_balance clock stats cfg db vfs id =
  let bt = Btree.attach clock stats cfg.Config.cpu (Pager.plain vfs db.acct) in
  match Btree.find bt (key10 id) with
  | Some v -> parse_balance v
  | None -> failwith "TPC-B: no such account"

(* A history slot whose first byte is NUL is a hole: at record grain the
   recno record count moves through a redo-only system write, so an
   aborted append leaves its allocated slot zeroed. Committed records
   always start with a digit. *)
let is_hole data = Bytes.get data 0 = '\000'

let iter_history clock stats cfg db vfs f =
  let hist =
    Recno.attach clock stats cfg.Config.cpu (Pager.plain vfs db.hist)
      ~reclen:history_bytes
  in
  Recno.iter hist (fun _ data ->
      if not (is_hole data) then f data;
      true)

let history_count clock stats cfg db vfs =
  let n = ref 0 in
  iter_history clock stats cfg db vfs (fun _ -> incr n);
  !n

let check_consistency clock stats cfg db vfs =
  let a = sum_balances clock stats cfg vfs db.acct in
  let t = sum_balances clock stats cfg vfs db.tell in
  let b = sum_balances clock stats cfg vfs db.br in
  if a <> t || t <> b then
    failwith
      (Printf.sprintf "TPC-B inconsistent: accounts %d, tellers %d, branches %d"
         a t b);
  (* Every committed transaction moved one delta into each relation and
     appended one history record; replaying history must reproduce the
     balance sums. *)
  let from_history = ref 0 in
  iter_history clock stats cfg db vfs (fun data ->
      from_history := !from_history + int_of_string (Bytes.sub_string data 20 15));
  if !from_history <> a then
    failwith
      (Printf.sprintf "TPC-B history sum %d disagrees with balances %d"
         !from_history a)

let account_fd db = db.acct
