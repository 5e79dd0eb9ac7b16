(* The tracked BENCH_*.json artifacts at the project root must pass
   bench-check: the shared envelope and the rules of the experiment that
   produced them. A rule change that rejects the committed set fails
   here, not only in CI. *)

let root = "."

let artifacts =
  Sys.readdir root |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  |> List.sort compare

let test_artifact file () =
  let path = Filename.concat root file in
  let doc = Json.of_string (In_channel.with_open_bin path In_channel.input_all) in
  (match Option.bind (Json.member "meta" doc) (Json.member "name") with
  | Some (Json.Str name) ->
    Alcotest.(check bool)
      (name ^ " has experiment rules") true
      (List.mem_assoc name Benchcheck.checks)
  | _ -> Alcotest.fail "meta.name missing");
  Alcotest.(check (list string)) file [] (Benchcheck.check_file path)

let test_some_artifacts () =
  Alcotest.(check bool) "BENCH_*.json present" true (artifacts <> [])

let () =
  Alcotest.run "bench_artifacts"
    [
      ( "tracked",
        Alcotest.test_case "present" `Quick test_some_artifacts
        :: List.map
             (fun f -> Alcotest.test_case f `Quick (test_artifact f))
             artifacts );
    ]
