(* LIBTP as every experiment runs it: a 1024-page buffer pool and
   Libtp's default checkpoint interval. *)
let wal =
  { Txstack.pool_pages = 1024; checkpoint_every = 500; log_path = "/tpcb/log" }

type tpcb_run = {
  setup : Txstack.backend;
  seed : int;
  result : Tpcb.result;
  lock_blocks : int;
  deadlocks : int;
  restarts : int;
  cleaner_stall_s : float;
  cleaner_max_stall_s : float;
  stats : Stats.t;
}

let tps_config ?config tps =
  match config with
  | Some c -> c
  | None -> Config.scaled ~factor:(float_of_int tps /. 10.0) Config.default

let spread_scale tps =
  { Tpcb.accounts = 100_000 * tps; tellers = 200 * tps; branches = 200 * tps }

let compact_scale tps =
  { Tpcb.accounts = 2_000 * tps; tellers = 200 * tps; branches = 200 * tps }

let run_tpcb ?trace ?prepare ?mpl ~config ~scale ~txns ~seed setup =
  let m = Txstack.machine setup config in
  (match trace with
  | Some cap -> Stats.set_trace m.stats (Some (Trace.create ~capacity:cap ()))
  | None -> ());
  let rng = Rng.create ~seed in
  let prepare =
    Option.map (fun f stack -> f m stack.Txstack.vfs (Txstack.lfs stack)) prepare
  in
  let stack, db, sched = Txstack.boot_tpcb ?mpl ?prepare ~wal ~scale ~rng m in
  (* Measure the transaction phase only, like the paper. Cleaner stall
     accounting is also restricted to the measured window. *)
  let stall0 = Stats.time m.stats "cleaner.stall" in
  let result, lock_blocks, deadlocks, restarts =
    match mpl with
    | None -> (Tpcb.run m.clock m.stats m.cfg db stack.txn ~rng ~n:txns, 0, 0, 0)
    | Some mpl ->
      let r = Tpcb.run_sched m.clock m.stats m.cfg db stack.txn ~rng ~n:txns ~mpl in
      (r.Tpcb.base, r.Tpcb.conflicts, r.Tpcb.deadlocks, r.Tpcb.restarts)
  in
  Option.iter Sched.detach sched;
  {
    setup;
    seed;
    result;
    lock_blocks;
    deadlocks;
    restarts;
    cleaner_stall_s = Stats.time m.stats "cleaner.stall" -. stall0;
    cleaner_max_stall_s = Stats.max_of m.stats "cleaner.max_stall";
    stats = m.stats;
  }

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

let scale_json (s : Tpcb.scale) =
  Json.Obj
    [
      ("accounts", Json.Int s.Tpcb.accounts);
      ("tellers", Json.Int s.Tpcb.tellers);
      ("branches", Json.Int s.Tpcb.branches);
    ]

let p99 stats key =
  match Stats.histo stats key with
  | Some h -> Histo.percentile h 0.99
  | None -> 0.0

let run_fields (r : tpcb_run) =
  [
    ("tps", Json.Float r.result.Tpcb.tps);
    ("elapsed_s", Json.Float r.result.Tpcb.elapsed_s);
    ("txns", Json.Int r.result.Tpcb.txns);
    ("max_latency_s", Json.Float r.result.Tpcb.max_latency_s);
    ("lock_blocks", Json.Int r.lock_blocks);
    ("deadlocks", Json.Int r.deadlocks);
    ("restarts", Json.Int r.restarts);
    ("cleaner_stall_s", Json.Float r.cleaner_stall_s);
    ("stats", Stats.to_json r.stats);
  ]

let tpcb_run_json (r : tpcb_run) =
  Json.Obj
    ([ ("setup", Json.Str (Txstack.name r.setup)); ("seed", Json.Int r.seed) ]
    @ run_fields r
    @ [ ("cleaner_max_stall_s", Json.Float r.cleaner_max_stall_s) ])

let sweep_data ~name ?setup ~scale ~txns ?(extra = []) points =
  Json.Obj
    ([ ("figure", Json.Str name) ]
    @ Option.to_list
        (Option.map (fun b -> ("setup", Json.Str (Txstack.name b))) setup)
    @ [
        ("scale", scale_json scale);
        ("txns", Json.Int txns);
        ("points", Json.List points);
      ]
    @ extra)

let report ~json ~name ~config ~print ~to_json x =
  print x;
  if json then
    Printf.printf "wrote %s\n%!" (write_bench ~name ~config (to_json x))

(* Artifact rules ------------------------------------------------------------ *)

let points ?(key = "points") data =
  match Json.member key data with Some (Json.List ps) -> ps | _ -> []

let num key p =
  Option.value ~default:0.0 (Option.bind (Json.member key p) Json.to_float_opt)

let str key p = match Json.member key p with Some (Json.Str s) -> s | _ -> "?"

let missing_fields what fields p =
  List.filter_map
    (fun f ->
      if Json.member f p = None then
        Some (Printf.sprintf "%s missing field %s" what f)
      else None)
    fields

let matches fields p =
  List.for_all
    (fun (key, v) ->
      match (Json.member key p, Json.to_float_opt v) with
      | Some found, Some x -> Json.to_float_opt found = Some x
      | found, _ -> found = Some v)
    fields

let find_point fields points = List.find_opt (matches fields) points

let check_sweep ~name ~fields rules data =
  match points data with
  | [] -> [ name ^ ": data.points missing or empty" ]
  | ps ->
    List.concat_map (missing_fields (name ^ " point") fields) ps @ rules ps

let pp_sweep_header title data =
  let setup = List.assoc (str "setup" data) Txstack.backends in
  let accounts =
    num "accounts" (Option.value ~default:Json.Null (Json.member "scale" data))
  in
  pp_header
    (Printf.sprintf "%s: %s, TPC-B, %.0f accounts, %.0f txns per point" title
       (Txstack.label setup) accounts (num "txns" data))
