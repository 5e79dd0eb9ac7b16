type machine = {
  cfg : Config.t;
  clock : Clock.t;
  stats : Stats.t;
  disks : Diskset.t;
}

let machine ?route_checkpoints cfg =
  let clock = Clock.create () in
  let stats = Stats.create () in
  { cfg; clock; stats; disks = Diskset.create ?route_checkpoints clock stats cfg }

(* Open the WAL environment. With dedicated log spindles each log stream
   lives in a small FFS formatted on its own spindle (so commit forces
   never move the data heads, and with several streams never contend for
   one log arm); otherwise the streams are files in the data file
   system. *)
let wal_env m data_vfs ~pool_pages =
  match Diskset.log_disks m.disks with
  | [||] ->
    Libtp.open_env m.clock m.stats m.cfg data_vfs ~pool_pages
      ~log_path:"/tpcb/log" ()
  | lds ->
    let log_vfss =
      Array.map (fun ld -> Ffs.vfs (Ffs.format ld m.clock m.stats m.cfg)) lds
    in
    Libtp.open_env m.clock m.stats m.cfg data_vfs ~log_vfss ~pool_pages
      ~log_path:"/log" ()

type setup = Readopt_user | Lfs_user | Lfs_kernel

let setup_label = function
  | Readopt_user -> "read-optimized / user-level"
  | Lfs_user -> "LFS / user-level"
  | Lfs_kernel -> "LFS / kernel (embedded)"

let setup_key = function
  | Readopt_user -> "ffs-user"
  | Lfs_user -> "lfs-user"
  | Lfs_kernel -> "lfs-kernel"

type tpcb_run = {
  setup : setup;
  seed : int;
  result : Tpcb.result;
  cleaner_stall_s : float;
  cleaner_max_stall_s : float;
  stats : Stats.t;
}

(* [prepare] runs after the database is built but before the measured
   window: experiments use it to shape the disk (e.g. prefill to a target
   utilization for cleaner studies). It receives the machine, the data
   file system's VFS, and the LFS handle when the setup has one. *)
let run_tpcb ?(pool_pages = 1024) ?trace ?prepare ~config ~scale ~txns ~seed
    setup =
  (* Only the kernel-embedded setup leaves the log spindle (if any) free
     of a file system, so only there may the LFS checkpoint region use it. *)
  let m = machine ~route_checkpoints:(setup = Lfs_kernel) config in
  (match trace with
  | Some cap -> Stats.set_trace m.stats (Some (Trace.create ~capacity:cap ()))
  | None -> ());
  let rng = Rng.create ~seed in
  let vfs, backend, lfs =
    match setup with
    | Readopt_user ->
      let fs = Ffs.format (Diskset.primary m.disks) m.clock m.stats m.cfg in
      let v = Ffs.vfs fs in
      let db = Tpcb.build m.clock m.stats m.cfg v ~rng ~scale in
      ignore db;
      let env = wal_env m v ~pool_pages in
      (v, Tpcb.User env, None)
    | Lfs_user ->
      let fs = Lfs.format m.disks m.clock m.stats m.cfg in
      let v = Lfs.vfs fs in
      let db = Tpcb.build m.clock m.stats m.cfg v ~rng ~scale in
      ignore db;
      let env = wal_env m v ~pool_pages in
      (v, Tpcb.User env, Some fs)
    | Lfs_kernel ->
      let fs = Lfs.format m.disks m.clock m.stats m.cfg in
      let v = Lfs.vfs fs in
      let db = Tpcb.build m.clock m.stats m.cfg v ~rng ~scale in
      ignore db;
      let k = Ktxn.create fs in
      Tpcb.protect_all db k;
      (v, Tpcb.Kernel k, Some fs)
  in
  (match prepare with Some f -> f m vfs lfs | None -> ());
  let db = Tpcb.open_db vfs ~scale in
  (* Measure the transaction phase only, like the paper. Cleaner stall
     accounting is also restricted to the measured window. *)
  let stall0 = Stats.time m.stats "cleaner.stall" in
  let result = Tpcb.run m.clock m.stats m.cfg db backend ~rng ~n:txns in
  {
    setup;
    seed;
    result;
    cleaner_stall_s = Stats.time m.stats "cleaner.stall" -. stall0;
    cleaner_max_stall_s = Stats.max_of m.stats "cleaner.max_stall";
    stats = m.stats;
  }

let run_tpcb_mpl ?(pool_pages = 1024) ?trace ?prepare ~config ~scale ~txns
    ~seed ~mpl setup =
  let m = machine ~route_checkpoints:(setup = Lfs_kernel) config in
  (match trace with
  | Some cap -> Stats.set_trace m.stats (Some (Trace.create ~capacity:cap ()))
  | None -> ());
  (* Attach the discrete-event scheduler before any component boots, so
     subsystems discover it via [Sched.of_clock] and take their blocking
     paths once inside worker processes. Setup itself runs outside any
     process, where nothing waits. *)
  let sched = Sched.create m.clock in
  let rng = Rng.create ~seed in
  let vfs, backend, lfs =
    match setup with
    | Readopt_user ->
      let fs = Ffs.format (Diskset.primary m.disks) m.clock m.stats m.cfg in
      let v = Ffs.vfs fs in
      ignore (Tpcb.build m.clock m.stats m.cfg v ~rng ~scale);
      let env = wal_env m v ~pool_pages in
      (v, Tpcb.User env, None)
    | Lfs_user ->
      let fs = Lfs.format m.disks m.clock m.stats m.cfg in
      let v = Lfs.vfs fs in
      ignore (Tpcb.build m.clock m.stats m.cfg v ~rng ~scale);
      let env = wal_env m v ~pool_pages in
      (v, Tpcb.User env, Some fs)
    | Lfs_kernel ->
      let fs = Lfs.format m.disks m.clock m.stats m.cfg in
      let v = Lfs.vfs fs in
      let db = Tpcb.build m.clock m.stats m.cfg v ~rng ~scale in
      let k = Ktxn.create fs in
      Tpcb.protect_all db k;
      (v, Tpcb.Kernel k, Some fs)
  in
  (match prepare with Some f -> f m vfs lfs | None -> ());
  (match lfs with Some fs -> Lfs.start_background fs | None -> ());
  let db = Tpcb.open_db vfs ~scale in
  let stall0 = Stats.time m.stats "cleaner.stall" in
  let multi =
    Tpcb.run_sched m.clock m.stats m.cfg db backend ~rng ~n:txns ~mpl
  in
  Sched.detach sched;
  ( {
      setup;
      seed;
      result = multi.Tpcb.base;
      cleaner_stall_s = Stats.time m.stats "cleaner.stall" -. stall0;
      cleaner_max_stall_s = Stats.max_of m.stats "cleaner.max_stall";
      stats = m.stats;
    },
    multi )

let mean xs =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let stdev xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    sqrt (mean (List.map (fun x -> (x -. m) ** 2.0) xs))

let pp_header title =
  let line = String.make 72 '=' in
  Printf.printf "\n%s\n%s\n%s\n" line title line

(* Machine-readable benchmark artifacts ----------------------------------- *)

let config_json (c : Config.t) =
  let d = c.Config.disk and cpu = c.Config.cpu and fs = c.Config.fs in
  Json.Obj
    [
      ( "disk",
        Json.Obj
          [
            ("block_size", Json.Int d.Config.block_size);
            ("nblocks", Json.Int d.Config.nblocks);
            ("blocks_per_cylinder", Json.Int d.Config.blocks_per_cylinder);
            ("min_seek_s", Json.Float d.Config.min_seek_s);
            ("max_seek_s", Json.Float d.Config.max_seek_s);
            ("rpm", Json.Float d.Config.rpm);
            ("transfer_bytes_per_s", Json.Float d.Config.transfer_bytes_per_s);
          ] );
      ( "cpu",
        Json.Obj
          [
            ("syscall_s", Json.Float cpu.Config.syscall_s);
            ("context_switch_s", Json.Float cpu.Config.context_switch_s);
            ("has_test_and_set", Json.Bool cpu.Config.has_test_and_set);
            ("test_and_set_s", Json.Float cpu.Config.test_and_set_s);
            ("copy_block_s", Json.Float cpu.Config.copy_block_s);
            ("buffer_lookup_s", Json.Float cpu.Config.buffer_lookup_s);
            ("protection_check_s", Json.Float cpu.Config.protection_check_s);
            ("record_op_s", Json.Float cpu.Config.record_op_s);
            ("cursor_next_s", Json.Float cpu.Config.cursor_next_s);
            ("lock_op_s", Json.Float cpu.Config.lock_op_s);
            ("log_record_s", Json.Float cpu.Config.log_record_s);
            ("file_op_s", Json.Float cpu.Config.file_op_s);
            ("compile_unit_s", Json.Float cpu.Config.compile_unit_s);
          ] );
      ( "fs",
        Json.Obj
          [
            ("kernel_txn", Json.Bool fs.Config.kernel_txn);
            ("segment_blocks", Json.Int fs.Config.segment_blocks);
            ("cache_blocks", Json.Int fs.Config.cache_blocks);
            ("syncer_interval_s", Json.Float fs.Config.syncer_interval_s);
            ("checkpoint_segments", Json.Int fs.Config.checkpoint_segments);
            ("cleaner_low_segments", Json.Int fs.Config.cleaner_low_segments);
            ("cleaner_high_segments", Json.Int fs.Config.cleaner_high_segments);
            ( "cleaner_policy",
              Json.Str
                (match fs.Config.cleaner_policy with
                | `Greedy -> "greedy"
                | `Cost_benefit -> "cost-benefit") );
            ("cleaner_segregate", Json.Bool fs.Config.cleaner_segregate);
            ("cleaner_adaptive", Json.Bool fs.Config.cleaner_adaptive);
            ( "cleaner_backoff_qdepth",
              Json.Int fs.Config.cleaner_backoff_qdepth );
            ("lfs_user_cleaner", Json.Bool fs.Config.lfs_user_cleaner);
            ("group_commit_timeout_s", Json.Float fs.Config.group_commit_timeout_s);
            ("group_commit_size", Json.Int fs.Config.group_commit_size);
            ("ndisks", Json.Int fs.Config.ndisks);
            ("log_disk", Json.Bool fs.Config.log_disk);
            ("log_streams", Json.Int fs.Config.log_streams);
            ( "lock_grain",
              Json.Str
                (match fs.Config.lock_grain with
                | `Page -> "page"
                | `Record -> "record") );
            ("lock_escalation", Json.Int fs.Config.lock_escalation);
          ] );
    ]

let config_fingerprint c =
  Printf.sprintf "%08x" (Hashtbl.hash (Json.to_string (config_json c)))

let bench_doc ~name ~config data =
  Json.Obj
    [
      ( "meta",
        Json.Obj
          [
            ("name", Json.Str name);
            ("schema", Json.Int 1);
            ("generator", Json.Str "txnlfs");
            ("config_fingerprint", Json.Str (config_fingerprint config));
            ("config", config_json config);
          ] );
      ("data", data);
    ]

let write_bench ~name ~config data =
  let dir =
    match Sys.getenv_opt "BENCH_DIR" with Some d when d <> "" -> d | _ -> "."
  in
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" name) in
  let oc = open_out path in
  output_string oc (Json.to_string_pretty (bench_doc ~name ~config data));
  output_char oc '\n';
  close_out oc;
  path

let tpcb_run_json (r : tpcb_run) =
  Json.Obj
    [
      ("setup", Json.Str (setup_key r.setup));
      ("seed", Json.Int r.seed);
      ("txns", Json.Int r.result.Tpcb.txns);
      ("elapsed_s", Json.Float r.result.Tpcb.elapsed_s);
      ("tps", Json.Float r.result.Tpcb.tps);
      ("max_latency_s", Json.Float r.result.Tpcb.max_latency_s);
      ("cleaner_stall_s", Json.Float r.cleaner_stall_s);
      ("cleaner_max_stall_s", Json.Float r.cleaner_max_stall_s);
      ("stats", Stats.to_json r.stats);
    ]
