(* One run of one TPC-B workload, in its own process.

   Phases: build (the set-up) -> measured transaction phase -> checks ->
   repeated checkpoint, crash and recovery -> cold key-order scan of the
   account relation -> checks.
   Everything the run reports is read from outside the library: [Stats]
   counters and histograms are snapshotted at the phase boundaries and
   diffed, latency percentiles are computed exactly from
   [Tpcb.result.latencies_s], and host time is read around each phase.

   With [--trace 1] the run also attaches the event ring, records its own
   spans (every phase and every call through a timing wrapper around the
   [Vfs.t] records it hands to the library), times the layers' public
   entry points in isolation, and writes the spans and the ring under
   [--out].

   The last line of standard output is one JSON object; [run.py] turns
   it into the benchmark's metrics. *)

(* Host time is the process's CPU time (user + system): what a run costs,
   without the time it waits for a processor. *)
let host_now = Sys.time
let t_start = host_now ()

(* Workloads ---------------------------------------------------------------- *)

type workload = {
  name : string;
  cfg : Config.t;
  scale : Tpcb.scale;
  kernel : bool;  (** embedded manager; otherwise LIBTP *)
  mpl : int;  (** 1 runs the pre-scheduler path *)
  fill_pct : int;  (** prefill the disk with cold files to this use; 0 = none *)
}

(* Transactions measured per requested second, about one host second of
   work on every workload. The measured phase is a fixed count, so a seed
   fixes every simulated number. *)
let txns_per_second = 4_000

(* The spread scale of logsweep and cleanersweep: 4 000 accounts (pool
   resident), and tellers and branches spread so that MPL > 1 does not
   serialize on one page. *)
let spread = { Tpcb.accounts = 4_000; tellers = 400; branches = 400 }

let workloads =
  let small = Config.scaled ~factor:0.2 Config.default in
  let grouped =
    {
      small.Config.fs with
      Config.lock_grain = `Record;
      group_commit_size = 8;
      group_commit_timeout_s = 0.02;
    }
  in
  [
    {
      name = "paper-kernel";
      cfg = Config.scaled ~factor:0.4 Config.default;
      scale = Tpcb.scale_for_tps 4;
      kernel = true;
      mpl = 1;
      fill_pct = 0;
    };
    {
      name = "wal-mpl16";
      cfg =
        {
          small with
          Config.fs =
            { grouped with Config.ndisks = 2; log_disk = true; log_streams = 1 };
        };
      scale = spread;
      kernel = false;
      mpl = 16;
      fill_pct = 0;
    };
    {
      name = "cleaner-mpl8-90";
      (* Adaptive (idle-time) cleaning is off: with it, TPC-B at MPL 8 on
         a 90 %-full disk reads foreign blocks as B-tree pages on some
         seeds (seed 1 fails within 2 000 transactions). *)
      cfg = { small with Config.fs = { grouped with Config.cleaner_adaptive = false } };
      scale = spread;
      kernel = true;
      mpl = 8;
      fill_pct = 90;
    };
  ]

(* Spans -------------------------------------------------------------------- *)

type span = {
  id : int;
  parent : int;  (** -1 at the root *)
  sname : string;
  pid : int;  (** simulated process, 0 outside any *)
  h0 : float;  (** host seconds since process start *)
  s0 : float;  (** simulated seconds *)
  mutable h1 : float;
  mutable s1 : float;
}

(* Vfs spans beyond this many are counted, not kept: a 400 000-account
   build makes millions of calls. Phase spans are always kept. *)
let vfs_span_cap = 100_000

type tracer = {
  clock : Clock.t;
  stacks : (int, int list) Hashtbl.t;  (** open spans per process *)
  mutable next_id : int;
  mutable kept : span list;
  mutable vfs_kept : int;
  mutable vfs_dropped : int;
  mutable vfs_calls : int;
  mutable vfs_host_s : float;
      (** inclusive: a call that parks its process also counts the host
          time of whatever ran meanwhile *)
}

let tracer clock =
  {
    clock;
    stacks = Hashtbl.create 64;
    next_id = 0;
    kept = [];
    vfs_kept = 0;
    vfs_dropped = 0;
    vfs_calls = 0;
    vfs_host_s = 0.0;
  }

let current_pid clock =
  match Sched.of_clock clock with
  | Some s when Sched.in_process s -> Sched.self s
  | _ -> 0

let with_span tr ~keep ?(on_close = fun (_ : span) -> ()) name f =
  let pid = current_pid tr.clock in
  let stack = Option.value (Hashtbl.find_opt tr.stacks pid) ~default:[] in
  let sp =
    {
      id = tr.next_id;
      parent =
        (* A process's first span belongs to the phase that runs it. *)
        (match (stack, Hashtbl.find_opt tr.stacks 0) with
        | p :: _, _ | [], Some (p :: _) -> p
        | [], _ -> -1);
      sname = name;
      pid;
      h0 = host_now () -. t_start;
      s0 = Clock.now tr.clock;
      h1 = 0.0;
      s1 = 0.0;
    }
  in
  tr.next_id <- tr.next_id + 1;
  Hashtbl.replace tr.stacks pid (sp.id :: stack);
  if keep then tr.kept <- sp :: tr.kept;
  Fun.protect f ~finally:(fun () ->
      sp.h1 <- host_now () -. t_start;
      sp.s1 <- Clock.now tr.clock;
      Hashtbl.replace tr.stacks pid stack;
      on_close sp)

let phase tr name f =
  match tr with None -> f () | Some tr -> with_span tr ~keep:true name f

let vfs_call tr name f =
  let keep = tr.vfs_kept < vfs_span_cap in
  if keep then tr.vfs_kept <- tr.vfs_kept + 1
  else tr.vfs_dropped <- tr.vfs_dropped + 1;
  with_span tr ~keep name f ~on_close:(fun sp ->
      tr.vfs_calls <- tr.vfs_calls + 1;
      tr.vfs_host_s <- tr.vfs_host_s +. (sp.h1 -. sp.h0))

(* The library reaches a file system only through the [Vfs.t] record it
   is given, so wrapping the record times that boundary without touching
   library code. The kernel pager goes to LFS directly and is not seen. *)
let wrap_vfs tr (v : Vfs.t) =
  let c op = vfs_call tr (Printf.sprintf "vfs.%s.%s" v.Vfs.name op) in
  let create = c "create" and open_file = c "open_file" and read = c "read"
  and write = c "write" and truncate = c "truncate" and size = c "size"
  and fsync = c "fsync" and sync = c "sync" and remove = c "remove"
  and mkdir = c "mkdir" and readdir = c "readdir" and exists = c "exists"
  and stat = c "stat" and set_protected = c "set_protected" in
  {
    v with
    Vfs.create = (fun p -> create (fun () -> v.Vfs.create p));
    open_file = (fun p -> open_file (fun () -> v.Vfs.open_file p));
    read = (fun fd ~off ~len -> read (fun () -> v.Vfs.read fd ~off ~len));
    write = (fun fd ~off b -> write (fun () -> v.Vfs.write fd ~off b));
    truncate = (fun fd n -> truncate (fun () -> v.Vfs.truncate fd n));
    size = (fun fd -> size (fun () -> v.Vfs.size fd));
    fsync = (fun fd -> fsync (fun () -> v.Vfs.fsync fd));
    sync = (fun () -> sync v.Vfs.sync);
    remove = (fun p -> remove (fun () -> v.Vfs.remove p));
    mkdir = (fun p -> mkdir (fun () -> v.Vfs.mkdir p));
    readdir = (fun p -> readdir (fun () -> v.Vfs.readdir p));
    exists = (fun p -> exists (fun () -> v.Vfs.exists p));
    stat = (fun p -> stat (fun () -> v.Vfs.stat p));
    set_protected = (fun p b -> set_protected (fun () -> v.Vfs.set_protected p b));
  }

let span_json sp =
  Json.Obj
    [
      ("id", Json.Int sp.id);
      ("parent", Json.Int sp.parent);
      ("name", Json.Str sp.sname);
      ("pid", Json.Int sp.pid);
      ("host_start_s", Json.Float sp.h0);
      ("host_end_s", Json.Float sp.h1);
      ("sim_start_s", Json.Float sp.s0);
      ("sim_end_s", Json.Float sp.s1);
    ]

(* Measured-window accounting ----------------------------------------------- *)

type snap = {
  counts : (string, int) Hashtbl.t;
  times : (string, float) Hashtbl.t;
  hsum : (string, float) Hashtbl.t;
  hcount : (string, int) Hashtbl.t;
  gc : Gc.stat;
  host : float;
  sim : float;
  vfs_calls : int;
  vfs_host_s : float;
}

let snapshot clock stats (tr : tracer option) =
  let counts = Hashtbl.create 256 and times = Hashtbl.create 256 in
  List.iter
    (fun (k, v) ->
      match v with
      | `Count n -> Hashtbl.replace counts k n
      | `Seconds s -> Hashtbl.replace times k s
      | `Max _ -> ())
    (Stats.to_list stats);
  let hsum = Hashtbl.create 64 and hcount = Hashtbl.create 64 in
  List.iter
    (fun (k, h) ->
      Hashtbl.replace hsum k (Histo.sum h);
      Hashtbl.replace hcount k (Histo.count h))
    (Stats.histograms stats);
  {
    counts;
    times;
    hsum;
    hcount;
    gc = Gc.quick_stat ();
    host = host_now ();
    sim = Clock.now clock;
    vfs_calls = (match tr with Some t -> t.vfs_calls | None -> 0);
    vfs_host_s = (match tr with Some t -> t.vfs_host_s | None -> 0.0);
  }

let get tbl k zero = Option.value (Hashtbl.find_opt tbl k) ~default:zero

(* Differences over the window [a, b]. *)
let dcount a b k = float_of_int (get b.counts k 0 - get a.counts k 0)
let dtime a b k = get b.times k 0.0 -. get a.times k 0.0
let dhsum a b k = get b.hsum k 0.0 -. get a.hsum k 0.0
let dhcount a b k = float_of_int (get b.hcount k 0 - get a.hcount k 0)
let sum_over prefixes f = List.fold_left (fun acc p -> acc +. f p) 0.0 prefixes
let ratio n d = if d > 0.0 then n /. d else 0.0

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest rank over the sorted samples. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Set-up ------------------------------------------------------------------- *)

type sys = {
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;
  sched : Sched.t option;
  lfs : Lfs.t;
  vfs : Vfs.t;  (** as handed to the library (wrapped when tracing) *)
  log_fss : Ffs.t array;  (** the WAL's file systems, one per log spindle *)
  backend : Tpcb.backend;
  db : Tpcb.db;
}

(* Cold fill, as in cleanersweep: static files written once until only
   the target number of segments is free, never below the cleaner's
   low-water mark plus a margin so the measured run starts clean-free. *)
let prefill fs (vfs : Vfs.t) ~pct =
  let fcfg = (Lfs.config fs).Config.fs in
  let target =
    max
      (Lfs.nsegments fs * (100 - pct) / 100)
      (fcfg.Config.cleaner_low_segments + 4)
  in
  let bs = vfs.Vfs.block_size in
  let block = Bytes.make bs 'c' in
  vfs.Vfs.mkdir "/fill";
  let i = ref 0 in
  while Lfs.free_segments fs > target do
    let fd = vfs.Vfs.create (Printf.sprintf "/fill/f%d" !i) in
    for b = 0 to max 1 (fcfg.Config.segment_blocks - 1) - 1 do
      vfs.Vfs.write fd ~off:(b * bs) block
    done;
    vfs.Vfs.fsync fd;
    incr i
  done;
  vfs.Vfs.sync ()

(* Attach the transaction system to a mounted file system: the kernel
   manager, or a LIBTP environment (whose opening recovers from the log
   after a crash), and the file system's daemons when a scheduler runs. *)
let attach w ~clock ~stats ~disks ~sched ~wrap lfs log_fss =
  let vfs = wrap (Lfs.vfs lfs) in
  let db = Tpcb.open_db vfs ~scale:w.scale in
  let backend =
    if w.kernel then begin
      let k = Ktxn.create lfs in
      Tpcb.protect_all db k;
      Tpcb.Kernel k
    end
    else
      (* The WAL lives on its own spindles, one small FFS each. *)
      Tpcb.User
        (Libtp.open_env clock stats w.cfg vfs
           ~log_vfss:(Array.map (fun f -> wrap (Ffs.vfs f)) log_fss)
           ~pool_pages:1024 ~log_path:"/log" ())
  in
  if Option.is_some sched then Lfs.start_background lfs;
  { clock; stats; disks; sched; lfs; vfs; log_fss; backend; db }

let boot w ~rng ~wrap clock stats =
  (* The scheduler must be attached before any component boots: they
     discover it through the clock. Set-up itself runs outside any
     process. *)
  let sched = if w.mpl > 1 then Some (Sched.create clock) else None in
  let disks = Diskset.create ~route_checkpoints:w.kernel clock stats w.cfg in
  let lfs = Lfs.format disks clock stats w.cfg in
  let vfs = wrap (Lfs.vfs lfs) in
  ignore (Tpcb.build clock stats w.cfg vfs ~rng ~scale:w.scale);
  if w.fill_pct > 0 then prefill lfs vfs ~pct:w.fill_pct;
  let log_fss =
    if w.kernel then [||]
    else
      Array.map (fun d -> Ffs.format d clock stats w.cfg) (Diskset.log_disks disks)
  in
  attach w ~clock ~stats ~disks ~sched ~wrap lfs log_fss

(* Host-cost probes ------------------------------------------------------------

   Each layer entry point timed in isolation through its public API:
   [prepare] builds fresh state untimed, then [n] calls are timed. The
   median of five batches after one warm-up batch is reported. *)

let ns_per_op ~n prepare =
  let batch () =
    let run = prepare () in
    let t0 = host_now () in
    run n;
    (host_now () -. t0) *. 1e9 /. float_of_int n
  in
  ignore (batch ());
  median (List.init 5 (fun _ -> batch ()))

(* The TPC-B key format: a 10-digit decimal id. *)
let key10 id = Printf.sprintf "%010d" id

let repeat f n =
  for i = 1 to n do
    f i
  done

let probes w sys =
  let lfs = sys.lfs in
  let cpu = w.cfg.Config.cpu in
  let fresh_tree () =
    let cfg = Config.scaled ~factor:0.05 Config.default in
    let clock = Clock.create () and stats = Stats.create () in
    let fs = Lfs.format (Diskset.create clock stats cfg) clock stats cfg in
    let v = Lfs.vfs fs in
    Btree.attach clock stats cfg.Config.cpu (Pager.plain v (v.Vfs.create "/t"))
  in
  let value = String.make 100 '.' in
  let keys = 10_000 in
  let tree =
    lazy
      (let bt = fresh_tree () in
       repeat (fun i -> Btree.insert bt (key10 i) value) keys;
       bt)
  in
  let fcfg = w.cfg.Config.fs in
  [
    ( "host.cpu_charge_ns",
      ns_per_op ~n:200_000 (fun () ->
          let c = Clock.create () and s = Stats.create () in
          repeat (fun _ -> Cpu.charge c s cpu Cpu.Record_op)) );
    ( "host.stats_incr_ns",
      ns_per_op ~n:200_000 (fun () ->
          repeat (fun _ -> Stats.incr sys.stats "perfbench.probe")) );
    ( "host.sched_cycle_ns",
      ns_per_op ~n:5_000 (fun () n ->
          let s = Sched.create (Clock.create ()) in
          let cond = Sched.condition () in
          repeat
            (fun _ ->
              Sched.spawn s (fun () -> Sched.wait s cond);
              Sched.spawn s (fun () -> Sched.signal s cond))
            n;
          Sched.run s;
          Sched.detach s) );
    ( "host.summary_codec_ns",
      let entries =
        List.init
          (min (fcfg.Config.segment_blocks - 1)
             (Layout.max_summary_entries ~block_size:w.cfg.Config.disk.block_size))
          (fun i -> Layout.Data { inum = 7; lblock = i })
      in
      let b = Bytes.make w.cfg.Config.disk.block_size '\000' in
      let summary =
        {
          Layout.seq = 9L;
          timestamp = 1.0;
          next_seg = 3;
          more = false;
          cold = false;
          payload_ck = 0;
          entries;
        }
      in
      ns_per_op ~n:1_000 (fun () ->
          repeat (fun _ ->
              Layout.write_summary b summary;
              if Layout.read_summary b = None then failwith "summary codec")) );
    ( "host.policy_choose_ns",
      ns_per_op ~n:2_000 (fun () ->
          repeat (fun _ ->
              ignore
                (Policy.choose ~policy:fcfg.Config.cleaner_policy
                   ~nsegments:(Lfs.nsegments lfs)
                   ~segment_blocks:fcfg.Config.segment_blocks
                   ~now:(Clock.now sys.clock) ~live:(Lfs.live_blocks lfs)
                   ~last_write:(Lfs.last_write lfs)
                   ~candidate:(fun _ -> true)))) );
    ( "host.lockmgr_cycle_ns",
      (* One TPC-B transaction's lock set at record grain, then commit. *)
      ns_per_op ~n:5_000 (fun () ->
          let lm = Lockmgr.create (Clock.create ()) (Stats.create ()) cpu in
          repeat (fun i ->
              List.iter
                (fun o -> ignore (Lockmgr.acquire lm ~txn:1 o Lockmgr.Exclusive))
                [
                  Lockmgr.Rec (1, i land 127, i land 31);
                  Lockmgr.Rec (2, i land 15, i land 31);
                  Lockmgr.Rec (3, i land 15, i land 31);
                  Lockmgr.Rec (4, i land 1023, i land 63);
                ];
              Lockmgr.release_all lm ~txn:1)) );
    ( "host.logrec_codec_ns",
      let r =
        {
          Logrec.txn = 42;
          prev = 1234;
          body =
            Logrec.Update
              {
                file = 7;
                page = 99;
                off = 100;
                pstream = -1;
                plsn = Logrec.null_lsn;
                before = Bytes.make 100 'b';
                after = Bytes.make 100 'a';
              };
        }
      in
      ns_per_op ~n:20_000 (fun () ->
          repeat (fun _ ->
              if Logrec.decode (Logrec.encode r) 0 = None then
                failwith "logrec codec")) );
    ( "host.btree_insert_ns",
      ns_per_op ~n:2_000 (fun () ->
          let bt = fresh_tree () in
          repeat (fun i -> Btree.insert bt (key10 i) value)) );
    ( "host.btree_find_ns",
      ns_per_op ~n:2_000 (fun () ->
          let bt = Lazy.force tree in
          repeat (fun i ->
              if Btree.find bt (key10 (1 + (i * 7919 mod keys))) = None then
                failwith "btree find")) );
    ( "host.cache_lookup_ns",
      ns_per_op ~n:200_000 (fun () ->
          let c = Cache.create (Clock.create ()) (Stats.create ()) cpu ~capacity:1024 in
          Cache.set_writeback c (fun _ -> ());
          for i = 0 to 1023 do
            ignore (Cache.insert c ~file:1 ~lblock:i (Bytes.make 64 'x'))
          done;
          repeat (fun i -> ignore (Cache.lookup c ~file:1 ~lblock:(i land 1023)))) );
  ]

(* Measured phase --------------------------------------------------------------- *)

(* Host speed. The host's speed drifts by a quarter within seconds and
   stays in a fast or a slow mode for minutes, longer than a run, so no
   amount of measuring within one run averages it out. A fixed reference
   task, timed next to each slice of the measured phase, reads the host's
   speed at that moment: it sorts a fixed array of 16 384 integers with
   the standard library and allocates nothing, so no change to the system
   makes it faster or slower. *)
let reference_src = Array.init 16_384 (fun i -> ((i * 7919) + 13) land 0xFFFFF)
let reference_buf = Array.make (Array.length reference_src) 0

(* Host seconds of one reference task, the median of three. *)
let reference_s () =
  let once () =
    let t0 = host_now () in
    Array.blit reference_src 0 reference_buf 0 (Array.length reference_src);
    Array.sort Int.compare reference_buf;
    ignore (Sys.opaque_identity reference_buf.(0));
    host_now () -. t0
  in
  let a = once () in
  let b = once () in
  median [ a; b; once () ]

(* The reference host, on which one reference task takes this long: a
   2-vCPU virtual machine in its fast mode takes 3.9 ms. *)
let reference_host_s = 0.004

(* The measured phase. Host throughput is taken over 28 to 40 slices of
   the phase: each slice's commits per host second, scaled to the
   reference host by the reference task timed before and after it, and
   the median over the slices. At MPL 1 the phase runs as [slices]
   back-to-back calls, which execute the same transactions as one call.
   Under the scheduler a daemon samples the commit count every [slice_s]
   simulated seconds; it only reads and times, so the simulation is
   unchanged. A boundary between slices is (host time the slice before
   it ended, host time the slice after it began, commits, reference
   task); the reference task runs between the two host times. *)
let slices = 40
let slice_s = 100.0

let measure w sys ~rng ~n =
  let boundary () =
    let h_end = host_now () and c = Stats.count sys.stats "tpcb.commits" in
    let r = reference_s () in
    (h_end, host_now (), c, r)
  in
  let host_rate boundaries =
    let rec go acc = function
      | (h1, _, c1, r1) :: ((_, h0, c0, r0) :: _ as rest) ->
        let rate = float_of_int (c1 - c0) /. (h1 -. h0) in
        go ((rate *. (r0 +. r1) /. 2.0 /. reference_host_s) :: acc) rest
      | _ -> acc
    in
    median (go [] boundaries)
  in
  match sys.sched with
  | None ->
    let boundaries = ref [ boundary () ] in
    let parts =
      List.init slices (fun i ->
          let k = (n * (i + 1) / slices) - (n * i / slices) in
          let r =
            Tpcb.run sys.clock sys.stats w.cfg sys.db sys.backend ~rng ~n:k
          in
          boundaries := boundary () :: !boundaries;
          r)
    in
    let elapsed_s = List.fold_left (fun t r -> t +. r.Tpcb.elapsed_s) 0.0 parts in
    let latencies_s = Array.concat (List.map (fun r -> r.Tpcb.latencies_s) parts) in
    ( {
        Tpcb.txns = n;
        elapsed_s;
        tps = float_of_int n /. elapsed_s;
        max_latency_s = Array.fold_left Float.max 0.0 latencies_s;
        latencies_s;
      },
      0,
      host_rate !boundaries )
  | Some s ->
    let boundaries = ref [ boundary () ] in
    let measuring = ref true in
    Sched.spawn ~daemon:true s (fun () ->
        while !measuring do
          Sched.delay s slice_s;
          if !measuring then boundaries := boundary () :: !boundaries
        done);
    let m =
      Tpcb.run_sched sys.clock sys.stats w.cfg sys.db sys.backend ~rng ~n
        ~mpl:w.mpl
    in
    measuring := false;
    (* The last slice is partial; it counts only when it is the only one. *)
    let boundaries =
      match !boundaries with
      | [ first ] -> [ boundary (); first ]
      | full -> full
    in
    (m.Tpcb.base, m.Tpcb.deadlocks, host_rate boundaries)

(* Crash and recovery --------------------------------------------------------- *)

exception Power_failure

let crashes = 20

(* Quiesce to a known recovery point, a checkpoint of the transaction
   system and of LFS, then run [crash_after_s] simulated seconds of
   further transactions and fail the power. The checkpoint bounds the
   work left to recover; without it, recovery time follows the
   checkpoint sawtooth. Under the scheduler (the first crash of a run at
   MPL > 1) LIBTP's power fails with commits in flight and the embedded
   manager's between batches of transactions; without one it fails at
   the first transaction boundary past the deadline. Returns the commits
   acknowledged after the checkpoint. *)
let crash_after_s = 5.0

let run_until_crash w sys ~rng =
  let checkpoint () =
    (match sys.backend with
    | Tpcb.User env -> Libtp.checkpoint env
    | Tpcb.Kernel _ -> ());
    Lfs.checkpoint sys.lfs
  in
  let commits0 = Stats.count sys.stats "tpcb.commits" in
  (match sys.sched with
  | None ->
    checkpoint ();
    let t0 = Clock.now sys.clock in
    while Clock.now sys.clock -. t0 < crash_after_s do
      ignore (Tpcb.run sys.clock sys.stats w.cfg sys.db sys.backend ~rng ~n:1)
    done
  | Some s when w.kernel ->
    (* The embedded manager loses atomicity when the power fails with a
       group commit in flight (README.md, "Crashes"), so its power fails
       between batches of [mpl] transactions, each run to its durable
       commit, with the file system's daemons still running. *)
    Sched.spawn s checkpoint;
    Sched.run s;
    let t0 = Clock.now sys.clock in
    while Clock.now sys.clock -. t0 < crash_after_s do
      ignore
        (Tpcb.run_sched sys.clock sys.stats w.cfg sys.db sys.backend ~rng
           ~n:w.mpl ~mpl:w.mpl)
    done;
    Sched.detach s
  | Some s ->
    Sched.spawn s checkpoint;
    Sched.run s;
    Sched.spawn ~daemon:true s (fun () ->
        Sched.delay s crash_after_s;
        raise Power_failure);
    (match
       Tpcb.run_sched sys.clock sys.stats w.cfg sys.db sys.backend ~rng
         ~n:max_int ~mpl:w.mpl
     with
    | _ -> failwith "the transactions ended before the power failure"
    | exception Power_failure -> ());
    Sched.detach s);
  Stats.count sys.stats "tpcb.commits" - commits0

(* Power failure on every spindle, then remount on the same disks, with
   no scheduler: LFS rolls forward from its newest checkpoint; LIBTP's
   log file systems are remounted and their bitmaps rebuilt (the fsck
   time is returned), then reopening the environment redoes and undoes
   from the log. *)
let recover w sys ~wrap =
  Lfs.crash sys.lfs;
  Array.iter Ffs.crash sys.log_fss;
  let clock = sys.clock and stats = sys.stats in
  let lfs = Lfs.mount sys.disks clock stats w.cfg in
  let fsck_s = ref 0.0 in
  let log_fss =
    if w.kernel then [||]
    else
      Array.map
        (fun d ->
          let fs = Ffs.mount d clock stats w.cfg in
          let t0 = Clock.now clock in
          let rep = Ffs.fsck fs in
          fsck_s := !fsck_s +. (Clock.now clock -. t0);
          if rep.Ffs.cross_allocated > 0 then
            failwith
              (Printf.sprintf "log fsck: %d cross-allocated blocks"
                 rep.Ffs.cross_allocated);
          fs)
        (Diskset.log_disks sys.disks)
  in
  ( attach w ~clock ~stats ~disks:sys.disks ~sched:None ~wrap lfs log_fss,
    !fsck_s )

(* Run ------------------------------------------------------------------------ *)

type args = {
  workload : workload;
  seed : int;
  txns : int;
  trace : bool;
  setup_only : bool;
  out : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME [--seed N] [--seconds N] \
     [--trace 0|1] [--setup-only] [--out DIR]";
  exit 2

let parse_args () =
  let find name =
    match List.find_opt (fun w -> w.name = name) workloads with
    | Some w -> w
    | None -> usage ()
  in
  let rec go a = function
    | [] -> a
    | "--seed" :: v :: rest -> go { a with seed = int_of_string v } rest
    | "--seconds" :: v :: rest ->
      go { a with txns = txns_per_second * int_of_string v } rest
    | "--trace" :: v :: rest -> go { a with trace = v = "1" } rest
    | "--setup-only" :: rest -> go { a with setup_only = true } rest
    | "--out" :: v :: rest -> go { a with out = v } rest
    | _ -> usage ()
  in
  match List.tl (Array.to_list Sys.argv) with
  | "--workload" :: name :: rest ->
    let workload = find name in
    go
      {
        workload;
        seed = 1;
        txns = txns_per_second;
        trace = false;
        setup_only = false;
        out = ".";
      }
      rest
  | _ -> usage ()

let cpu_kinds =
  [
    "syscall"; "context_switch"; "user_mutex"; "kernel_mutex"; "copy_block";
    "buffer_lookup"; "protection_check"; "record_op"; "cursor_next"; "lock_op";
    "log_record"; "file_op"; "compile_unit";
  ]

let floats kvs = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) kvs)

let print_result fields =
  print_endline (Json.to_string (Json.Obj fields));
  flush stdout

let write_lines path lines =
  let oc = open_out path in
  List.iter
    (fun l ->
      output_string oc l;
      output_char oc '\n')
    lines;
  close_out oc

let main a =
  let w = a.workload in
  let clock = Clock.create () and stats = Stats.create () in
  let tr = if a.trace then Some (tracer clock) else None in
  let wrap = match tr with Some t -> wrap_vfs t | None -> Fun.id in
  let rng = Rng.create ~seed:a.seed in
  let sys = phase tr "setup" (fun () -> boot w ~rng ~wrap clock stats) in
  let setup_s = host_now () -. t_start in
  if a.setup_only then begin
    print_result [ ("setup_s", Json.Float setup_s) ];
    exit 0
  end;
  let ring =
    if a.trace then begin
      let r = Trace.create () in
      Stats.set_trace stats (Some r);
      Some r
    end
    else None
  in
  let s0 = snapshot clock stats tr in
  let result, deadlocks, host_rate =
    phase tr "txns" (fun () -> measure w sys ~rng ~n:a.txns)
  in
  let s1 = snapshot clock stats tr in
  let commits = result.Tpcb.txns in
  let violations = ref [] in
  let check what f =
    match f () with
    | () -> ()
    | exception e ->
      violations :=
        Printf.sprintf "%s: %s" what (Printexc.to_string e) :: !violations
  in
  phase tr "check" (fun () ->
      check "Lfs.check before the crash" (fun () -> Lfs.check sys.lfs);
      (* LIBTP's committed pages may still sit in its user-level pool:
         its data files are consistent only after recovery. *)
      if w.kernel then
        check "TPC-B consistency before the crash" (fun () ->
            Tpcb.check_consistency clock stats w.cfg sys.db sys.vfs));
  let s2 = snapshot clock stats tr in
  (* Crash and recover [crashes] times; recovery_s is the mean. One
     recovery's time depends on where the checkpoint and the partials
     happen to lie on the disk, so a single crash would make the metric
     follow the seed. *)
  let acked = ref commits and recoveries = ref [] and fsck_s = ref 0.0 in
  let final =
    try
      let rec go sys k =
        if k = 0 then Some sys
        else begin
          acked := !acked + phase tr "crash" (fun () -> run_until_crash w sys ~rng);
          let t0 = Clock.now clock in
          let sys, f = phase tr "recover" (fun () -> recover w sys ~wrap) in
          recoveries := (Clock.now clock -. t0) :: !recoveries;
          fsck_s := !fsck_s +. f;
          go sys (k - 1)
        end
      in
      go sys crashes
    with e ->
      violations :=
        ("crash and recovery: " ^ Printexc.to_string e) :: !violations;
      None
  in
  let s3 = snapshot clock stats tr in
  (* The scan runs right after the last recovery, so its cache is cold on
     every workload: with a warm cache the pool-resident spread workloads
     would scan without touching the disk, and the scan time would be a
     constant of the CPU model. *)
  let contiguity, scan_s =
    match final with
    | None -> (0.0, 0.0)
    | Some sys ->
      let contiguity = Lfs.contiguity sys.lfs (Tpcb.account_fd sys.db) in
      let scan_s =
        phase tr "scan" (fun () ->
            Workloads.scan clock stats w.cfg sys.vfs sys.db)
      in
      phase tr "verify" (fun () ->
          check "TPC-B consistency after recovery" (fun () ->
              Tpcb.check_consistency clock stats w.cfg sys.db sys.vfs);
          check "Lfs.check after recovery" (fun () -> Lfs.check sys.lfs);
          check "durability" (fun () ->
              let h = Tpcb.history_count clock stats w.cfg sys.db sys.vfs in
              if h < !acked then
                failwith
                  (Printf.sprintf
                     "history holds %d records but %d commits were \
                      acknowledged"
                     h !acked)));
      (contiguity, scan_s)
  in
  let s4 = snapshot clock stats tr in
  let host_s = host_now () -. t_start in
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0
  in
  let lat = Array.copy result.Tpcb.latencies_s in
  Array.sort compare lat;
  let ms p = 1000.0 *. percentile lat p in
  let end_to_end =
    [
      ("tps", result.Tpcb.tps);
      ("txn_p50_ms", ms 0.5);
      ("txn_p99_ms", ms 0.99);
      ("txn_p999_ms", ms 0.999);
      ("scan_s", scan_s);
      ("recovery_s", mean !recoveries);
      ("host_txn_per_s", host_rate);
      ("host_s", host_s);
      ("setup_s", setup_s);
      ("peak_heap_mb", peak_heap_mb);
    ]
  in
  let per_layer =
    match (tr, ring, final) with
    | Some tr, Some ring, Some final ->
      let d = dcount s0 s1 and t = dtime s0 s1 and hs = dhsum s0 s1
      and hn = dhcount s0 s1 in
      let c = float_of_int commits in
      let per x = ratio x c and ms_per x = 1000.0 *. ratio x c in
      let per_crash x = x /. float_of_int crashes in
      let elapsed = s1.sim -. s0.sim in
      let members = List.map fst (Diskset.members sys.disks) in
      let logs, data =
        List.partition (String.starts_with ~prefix:"disklog") members
      in
      let busy ps =
        ratio
          (sum_over ps (fun p -> t (p ^ ".busy")))
          (elapsed *. float_of_int (List.length ps))
      in
      let disks f suffix = sum_over members (fun p -> f (p ^ suffix)) in
      let kb = float_of_int w.cfg.Config.disk.block_size /. 1024.0 in
      let alloc (s : snap) =
        s.gc.Gc.minor_words +. s.gc.Gc.major_words -. s.gc.Gc.promoted_words
      in
      let layers =
        [
          ( "cpu.busy_share",
            ratio (sum_over cpu_kinds (fun k -> t ("cpu." ^ k))) elapsed );
          ("cpu.lock_op_ms_per_txn", ms_per (t "cpu.lock_op"));
          ("cpu.log_record_ms_per_txn", ms_per (t "cpu.log_record"));
          ("cpu.copy_block_ms_per_txn", ms_per (t "cpu.copy_block"));
          ("cpu.record_op_ms_per_txn", ms_per (t "cpu.record_op"));
          ("cpu.syscall_ms_per_txn", ms_per (t "cpu.syscall"));
          ("cpu.user_mutex_ms_per_txn", ms_per (t "cpu.user_mutex"));
          ("disk.data_busy_share", busy data);
          ("disk.log_busy_share", busy logs);
          ("disk.seek_ms_per_txn", ms_per (disks t ".seek"));
          ("disk.requests_per_txn", per (disks d ".requests"));
          ("disk.kb_written_per_txn", per (kb *. disks d ".blocks_written"));
          ("disk.kb_read_per_txn", per (kb *. disks d ".blocks_read"));
          ("disk.read_qwait_ms_per_txn", ms_per (disks hs ".read.qwait"));
          ( "cache.hit_rate",
            ratio (d "cache.hits") (d "cache.hits" +. d "cache.misses") );
          ("cache.evict_dirty_per_txn", per (d "cache.evict_dirty"));
          ("lfs.partials_per_txn", per (d "lfs.partials"));
          ("lfs.blocks_logged_per_txn", per (d "lfs.blocks_logged"));
          ("lfs.checkpoints", d "lfs.checkpoints");
          ("lfs.account_contiguity", contiguity);
          ("cleaner.segments", d "cleaner.segments");
          ( "cleaner.write_cost",
            ratio (d "cleaner.blocks_moved") (d "cleaner.blocks_reclaimed") );
          ("cleaner.stall_share", ratio (t "cleaner.stall") elapsed);
          ("cleaner.busy_s", t "cleaner.busy");
          ("cleaner.idle_cleans", d "cleaner.idle_cleans");
          ("cleaner.backoffs", d "cleaner.backoffs");
          ("lock.acquires_per_txn", per (d "lock.acquires"));
          ("lock.waits_per_txn", per (d "lock.waits"));
          ( "lock.wait_ms_per_txn",
            ms_per (t "txn.lock_wait" +. t "ktxn.lock_wait") );
          ("lock.latch_wait_ms_per_txn", ms_per (t "txn.latch_wait"));
          ("lock.deadlocks", d "lock.deadlocks");
          ("lock.escalations", d "lock.escalations");
          ("log.forces_per_txn", per (d "log.forces"));
          ( "log.commit_batch_mean",
            ratio (hs "log.commit_batch") (hn "log.commit_batch") );
          ( "log.group_commit_wait_ms_per_txn",
            ms_per (hs "log.group_commit_wait") );
          ("log.appends_per_txn", per (d "log.appends"));
          ("log.dep_forces", d "log.dep_forces");
          ("pool.writebacks_per_txn", per (d "pool.writebacks"));
          ("ktxn.group_flushes_per_txn", per (d "ktxn.group_flushes"));
          ( "ktxn.commit_batch_mean",
            ratio (hs "ktxn.commit_batch") (hn "ktxn.commit_batch") );
          ( "ktxn.group_commit_wait_ms_per_txn",
            ms_per (hs "ktxn.group_commit_wait") );
          ("ktxn.page_writes_per_txn", per (d "ktxn.page_writes"));
          ("db.record_ops_per_txn", per (d "cpu.record_op.n"));
          ("vfs.calls_per_txn", per (float_of_int (s1.vfs_calls - s0.vfs_calls)));
          ( "vfs.host_us_per_call",
            1e6
            *. ratio (s1.vfs_host_s -. s0.vfs_host_s)
                 (float_of_int (s1.vfs_calls - s0.vfs_calls)) );
          ("scan.kb_read", kb *. disks (dcount s3 s4) ".blocks_read");
          ("scan.seeks", disks (dcount s3 s4) ".seeks");
          ("recovery.rolled_partials", per_crash (dcount s2 s3 "lfs.rolled_partials"));
          ("recovery.log_fsck_s", per_crash !fsck_s);
          ( "recovery.log_kb_scanned",
            per_crash (dcount s2 s3 "log.recovery_bytes_scanned" /. 1024.0) );
          ("host.alloc_kw_per_txn", per ((alloc s1 -. alloc s0) /. 1000.0));
          ( "host.major_gcs",
            float_of_int
              (s1.gc.Gc.major_collections - s0.gc.Gc.major_collections) );
          ("trace.dropped", float_of_int (Trace.dropped ring));
          ("trace.vfs_spans_dropped", float_of_int tr.vfs_dropped);
        ]
      in
      let probed = probes w final in
      (try Unix.mkdir a.out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      let base =
        Filename.concat a.out (Printf.sprintf "%s-seed%d" w.name a.seed)
      in
      write_lines (base ^ ".spans.jsonl")
        (List.rev_map (fun sp -> Json.to_string (span_json sp)) tr.kept);
      let oc = open_out (base ^ ".events.jsonl") in
      Trace.output oc ring;
      close_out oc;
      layers @ probed
    | _ -> []
  in
  print_result
    [
      ("workload", Json.Str w.name);
      ("seed", Json.Int a.seed);
      ("correct", Json.Bool (!violations = []));
      ("violations", Json.List (List.map (fun v -> Json.Str v) !violations));
      ("commits", Json.Int commits);
      ("attempted", Json.Int (commits + deadlocks));
      ("failed", Json.Int (deadlocks + List.length !violations));
      ("samples", Json.Int (Array.length lat));
      ("end_to_end", floats end_to_end);
      ("per_layer", floats per_layer);
    ];
  if !violations <> [] then exit 1

let () = main (parse_args ())
