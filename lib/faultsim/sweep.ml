(* Crash-point sweeps: run a seeded transactional workload, cut the
   power after exactly the Nth block write, recover, and ask the oracle
   whether the durability invariant survived. Sweeping N across every
   write in the run turns crash consistency into an exhaustively checked
   property; any failure is replayable from its (seed, crash_point). *)

type workload = Pages | Tpcb

let workloads = [ ("pages", Pages); ("tpcb", Tpcb) ]
let workload_name w = fst (List.find (fun (_, w') -> w' = w) workloads)

type params = {
  backend : Txstack.backend;
  workload : workload;
  seed : int;
  txns : int;
  mpl : int option;
  ndisks : int;
  log_disk : bool;
  log_streams : int;
  lock_grain : [ `Page | `Record ];
  nblocks : int;
}

let default_nblocks = 4096

let params ?mpl ?(ndisks = 1) ?(log_disk = false) ?(log_streams = 1)
    ?(lock_grain = `Page) ?(nblocks = default_nblocks) workload backend ~seed
    ~txns =
  if workload = Pages && mpl <> None then
    invalid_arg "--mpl applies to the tpcb workload only";
  if lock_grain = `Record && Option.value mpl ~default:1 <= 1 then
    invalid_arg "--lock-grain record applies to the tpcb workload at --mpl > 1";
  {
    backend;
    workload;
    seed;
    txns;
    mpl;
    ndisks;
    log_disk;
    log_streams;
    lock_grain;
    nblocks;
  }

(* A small machine: enough segments for the cleaner and checkpoints to
   take part, and a cache smaller than the data. Without [mpl] group
   commit is disabled. With a timeout outside a scheduler, the embedded
   manager's [txn_commit] returns with its batch still pending, so the
   oracle would see acknowledged commits lost (ROADMAP.md, open item 1,
   "Early acknowledgement at MPL 1"). With [mpl] the group is [mpl]
   wide, because the rendezvous is the point of that sweep. *)
let config r =
  let d = Config.default in
  {
    d with
    Config.disk =
      { d.Config.disk with nblocks = r.nblocks; blocks_per_cylinder = 16 };
    fs =
      {
        d.Config.fs with
        kernel_txn = r.backend = Txstack.Lfs_kernel;
        segment_blocks = 32;
        cache_blocks = 128;
        cleaner_low_segments = 6;
        cleaner_high_segments = 12;
        checkpoint_segments = 4;
        syncer_interval_s = 1.0;
        group_commit_size =
          Option.value r.mpl ~default:d.Config.fs.group_commit_size;
        group_commit_timeout_s = (if r.mpl = None then 0.0 else 0.02);
        ndisks = r.ndisks;
        log_disk = r.log_disk;
        log_streams = r.log_streams;
        lock_grain = r.lock_grain;
      };
  }

type outcome = {
  params : params;
  crash_point : int option;
  writes : int;
  crashed : bool;
  violations : string list;
}

(* The faultsim command line that replays [o]: every flag whose value
   differs from the command's default, and the crash point if there is
   one (without it the command sweeps, which repeats the base run). *)
let recipe o =
  let r = o.params in
  let if_ cond s = if cond then [ s ] else [] in
  String.concat " "
    (List.concat
       [
         [
           "--backend " ^ Txstack.name r.backend;
           "--workload " ^ workload_name r.workload;
           Printf.sprintf "--txns %d" r.txns;
         ];
         Option.to_list (Option.map (Printf.sprintf "--mpl %d") r.mpl);
         if_ (r.ndisks <> 1) (Printf.sprintf "--ndisks %d" r.ndisks);
         if_ r.log_disk "--log-disk";
         if_ (r.log_streams <> 1) (Printf.sprintf "--log-streams %d" r.log_streams);
         if_ (r.lock_grain = `Record) "--lock-grain record";
         [ Printf.sprintf "--seed %d" r.seed ];
         Option.to_list (Option.map (Printf.sprintf "--crash-point %d") o.crash_point);
         if_ (r.nblocks <> default_nblocks)
           (Printf.sprintf
              "(and a %d-block disk, which only Sweep's ~nblocks sets)" r.nblocks);
       ])

let describe o =
  let at =
    match o.crash_point with
    | None -> "fault-free run"
    | Some p -> Printf.sprintf "crash_point=%d" p
  in
  let name = Txstack.name o.params.backend in
  match o.violations with
  | [] ->
    Printf.sprintf "[%s] seed=%d %s: ok (%d writes, crashed=%b)" name
      o.params.seed at o.writes o.crashed
  | vs ->
    Printf.sprintf
      "[%s] DURABILITY VIOLATION at (seed=%d, %s):\n  %s\n  replay with: %s"
      name o.params.seed at
      (String.concat "\n  " vs)
      (recipe o)

(* Arm the injector on every spindle, run [work] until it returns or the
   power fails, disarm, then crash and recover the stack and collect
   what the structural check and [check] find in the recovered file
   system. *)
let crash_cycle r ?crash_point stack ~rng ~work ~check =
  let arm =
    Faultsim.arm ?crash_after:crash_point ~read_error_rate:0.02
      ~rng:(Rng.split rng) stack.Txstack.machine.disks
  in
  let crashed, workload_err =
    match work () with
    | () -> (false, [])
    | exception Disk.Injected_crash -> (true, [])
    | exception e -> (false, [ "workload: " ^ Printexc.to_string e ])
  in
  let writes = Faultsim.writes arm in
  Faultsim.disarm arm;
  let recovered =
    try
      let vfs, structural = Txstack.crash_and_recover stack in
      (match structural () with
      | () -> []
      | exception e -> [ "structural check: " ^ Printexc.to_string e ])
      @ check vfs
    with e -> [ "recovery failed: " ^ Printexc.to_string e ]
  in
  { params = r; crash_point; writes; crashed; violations = workload_err @ recovered }

(* Page-level workload ---------------------------------------------------- *)

let files = [ "/acct"; "/tell"; "/branch"; "/hist" ]
let npages = 8

(* A page filled with a repeated seed/stamp tag: cheap, deterministic,
   and distinct for every write of the run. *)
let page_image ~ps ~seed ~stamp =
  let b = Bytes.make ps '\000' in
  let tag = Printf.sprintf "#%d:%d#" seed stamp in
  let tl = String.length tag in
  let i = ref 0 in
  while !i < ps do
    let n = min tl (ps - !i) in
    Bytes.blit_string tag 0 b !i n;
    i := !i + n
  done;
  b

type txn_ops = {
  id : int;
  twrite : string -> int -> bytes -> unit;
  tread : string -> int -> bytes;
  tcommit : unit -> unit;
  tabort : unit -> unit;
}

let pad_page ps b =
  if Bytes.length b = ps then b
  else begin
    let out = Bytes.make ps '\000' in
    Bytes.blit b 0 out 0 (min ps (Bytes.length b));
    out
  end

(* Create the working files and give every page committed initial
   contents, recorded as setup writes; they are durable before the
   injector is armed. *)
let setup_pages oracle model fresh_page (v : Vfs.t) ps =
  List.iter
    (fun path ->
      let fd = v.Vfs.create path in
      for p = 0 to npages - 1 do
        let data = fresh_page () in
        v.Vfs.write fd ~off:(p * ps) data;
        Hashtbl.replace model (path, p) data;
        Oracle.record oracle (Oracle.Setup_write { file = path; page = p; data })
      done)
    files

(* One page transaction's operations on either manager. *)
let page_txns (stack : Txstack.t) =
  match stack.txn with
  | Tpcb.Kernel kt ->
    let fs = Option.get (Txstack.lfs stack) in
    List.iter (Ktxn.protect kt) files;
    Lfs.sync fs;
    let inums = List.map (fun f -> (f, Lfs.inum_of fs f)) files in
    let inum f = List.assoc f inums in
    fun () ->
      let h = Ktxn.txn_begin kt in
      {
        id = Ktxn.txn_id h;
        twrite = (fun f p d -> Ktxn.write_page kt h ~inum:(inum f) ~page:p d);
        tread =
          (fun f p -> Bytes.copy (Ktxn.read_page kt h ~inum:(inum f) ~page:p));
        tcommit = (fun () -> Ktxn.txn_commit kt h);
        tabort = (fun () -> Ktxn.txn_abort kt h);
      }
  | Tpcb.User env ->
    let fds = List.map (fun f -> (f, stack.vfs.Vfs.open_file f)) files in
    let fd f = List.assoc f fds in
    fun () ->
      let h = Libtp.begin_txn env in
      {
        id = Libtp.txn_id h;
        twrite = (fun f p d -> Libtp.write_page env h ~file:(fd f) ~page:p d);
        tread =
          (fun f p -> Bytes.copy (Libtp.read_page env h ~file:(fd f) ~page:p));
        tcommit = (fun () -> Libtp.commit env h);
        tabort = (fun () -> Libtp.abort env h);
      }

(* One transaction mixes a few page writes with reads that are verified
   live against the acknowledged model (committed state + own writes) —
   so corruption visible before any crash is caught too. *)
let run_pages begin_txn oracle rng fresh_page model ~ps ~txns =
  let zeros = Bytes.make ps '\000' in
  for _ = 1 to txns do
    let t = begin_txn () in
    Oracle.record oracle (Oracle.Txn_begin t.id);
    let pending = Hashtbl.create 4 in
    let nops = 1 + Rng.int rng 4 in
    for _ = 1 to nops do
      let f = List.nth files (Rng.int rng (List.length files)) in
      let p = Rng.int rng npages in
      if Rng.int rng 4 = 0 then begin
        let actual = t.tread f p in
        let expected =
          match Hashtbl.find_opt pending (f, p) with
          | Some d -> d
          | None -> (
            match Hashtbl.find_opt model (f, p) with
            | Some d -> d
            | None -> zeros)
        in
        if not (Bytes.equal actual expected) then
          failwith (Printf.sprintf "live read of %s page %d diverged" f p)
      end
      else begin
        let d = fresh_page () in
        t.twrite f p d;
        Hashtbl.replace pending (f, p) d;
        Oracle.record oracle
          (Oracle.Txn_write { txn = t.id; file = f; page = p; data = d })
      end
    done;
    if Hashtbl.length pending > 0 && Rng.int rng 5 = 0 then begin
      Oracle.record oracle (Oracle.Abort_start t.id);
      t.tabort ();
      Oracle.record oracle (Oracle.Abort_done t.id)
    end
    else begin
      Oracle.record oracle (Oracle.Commit_start t.id);
      t.tcommit ();
      Oracle.record oracle (Oracle.Commit_done t.id);
      Hashtbl.iter (fun k d -> Hashtbl.replace model k d) pending
    end
  done

let pages_wal =
  { Txstack.pool_pages = 16; checkpoint_every = 25; log_path = "/wal.log" }

let run_pages ?crash_point r =
  let { backend; seed; txns; _ } = r in
  let m = Txstack.machine backend (config r) in
  let rng = Rng.create ~seed in
  let ps = m.cfg.Config.disk.block_size in
  let stamp = ref 0 in
  let fresh_page () =
    incr stamp;
    page_image ~ps ~seed ~stamp:!stamp
  in
  let oracle = Oracle.create ~page_size:ps in
  let model = Hashtbl.create 64 in
  let stack, () =
    Txstack.boot ~wal:pages_wal m ~populate:(fun v ->
        setup_pages oracle model fresh_page v ps;
        (* LIBTP opens on a durable image; the embedded manager's files
           are synced once it protects them. *)
        if backend <> Txstack.Lfs_kernel then v.Vfs.sync ())
  in
  let begin_txn = page_txns stack in
  crash_cycle r ?crash_point stack ~rng
    ~work:(fun () -> run_pages begin_txn oracle rng fresh_page model ~ps ~txns)
    ~check:(fun v ->
      List.map
        (Format.asprintf "%a" Oracle.pp_violation)
        (Oracle.check oracle
           ~read_page:(fun f p ->
             pad_page ps (v.Vfs.read (v.Vfs.open_file f) ~off:(p * ps) ~len:ps))
           ~size:(fun f -> v.Vfs.size (v.Vfs.open_file f))))

(* TPC-B workload --------------------------------------------------------- *)

(* Small-scale TPC-B: the database must fit the sweep machine, and a run
   must stay short enough to repeat hundreds of times. The oracle here
   is the benchmark's own accounting identity — balances, history
   provenance, and an acknowledged-commit lower bound — plus the file
   system's structural checker. *)
let tpcb_scale = { Tpcb.accounts = 200; tellers = 10; branches = 2 }

let tpcb_wal =
  { Txstack.pool_pages = 64; checkpoint_every = 50; log_path = "/tpcb.log" }

(* Without [mpl] the transactions run inline, one after another. With
   it, worker processes on the discrete-event scheduler park at the
   group-commit rendezvous, so a crash point can land mid-batch — some
   committers flushed but not yet resumed, others parked with nothing
   durable. Either way a commit is acknowledged when [txn_commit]
   returns (a parked committer wakes only after its batch's force), and
   every acknowledged commit must survive recovery; beyond them at most
   the [mpl] in-flight transactions (one, inline) may have landed. *)
let run_tpcb ?crash_point r =
  let { backend; seed; txns; mpl; _ } = r in
  let m = Txstack.machine backend (config r) in
  let rng = Rng.create ~seed in
  let stack, db, sched =
    Txstack.boot_tpcb ?mpl ~wal:tpcb_wal ~scale:tpcb_scale ~rng m
  in
  let work () =
    (* Recovery must run on the no-scheduler paths. *)
    Fun.protect ~finally:(fun () -> Option.iter Sched.detach sched) (fun () ->
        match mpl with
        | None -> ignore (Tpcb.run m.clock m.stats m.cfg db stack.txn ~rng ~n:txns)
        | Some mpl ->
          ignore (Tpcb.run_sched m.clock m.stats m.cfg db stack.txn ~rng ~n:txns ~mpl))
  in
  let check v =
    (* The TPC-B workers bump "tpcb.commits" as soon as [txn_commit] returns,
       with no intervening yield — exactly the acknowledgement point —
       and recovery runs no transaction. *)
    let acked = Stats.count m.stats "tpcb.commits" in
    let inflight = Option.value mpl ~default:1 in
    let db' = Tpcb.open_db v ~scale:tpcb_scale in
    let consistency =
      match Tpcb.check_consistency m.clock m.stats m.cfg db' v with
      | () -> []
      | exception e -> [ "tpcb consistency: " ^ Printexc.to_string e ]
    in
    let h = Tpcb.history_count m.clock m.stats m.cfg db' v in
    consistency
    @
    if h < acked || h > acked + inflight then
      [ Printf.sprintf "history count %d outside [%d, %d]" h acked (acked + inflight) ]
    else []
  in
  crash_cycle r ?crash_point stack ~rng ~work ~check

let run_one ?crash_point r =
  match r.workload with
  | Pages -> run_pages ?crash_point r
  | Tpcb -> run_tpcb ?crash_point r

(* Sweeping --------------------------------------------------------------- *)

type sweep_result = {
  total_writes : int;  (** crash points available in the run *)
  points_run : int;
  failures : outcome list;
}

let sweep ?(progress = fun (_ : outcome) -> ()) r ~points =
  (* The fault-free run both counts the crash points and sanity-checks
     that the oracle holds without any fault injected. *)
  let base = run_one r in
  if base.violations <> [] then
    { total_writes = base.writes; points_run = 1; failures = [ base ] }
  else begin
    let total = base.writes in
    let pts =
      if points <= 0 || points >= total then List.init total (fun i -> i + 1)
      else
        List.sort_uniq compare
          (List.init points (fun i -> 1 + (i * (total - 1) / max 1 (points - 1))))
    in
    let failures =
      List.filter_map
        (fun p ->
          let o = run_one ~crash_point:p r in
          progress o;
          if o.violations = [] then None else Some o)
        pts
    in
    { total_writes = total; points_run = List.length pts; failures }
  end
