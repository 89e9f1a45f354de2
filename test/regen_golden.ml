(* Regenerates the committed golden files:

     dune exec test/regen_golden.exe                    > test/golden/experiments.expected
     dune exec test/regen_golden.exe -- probcheck-small > test/golden/probcheck_small.expected
     dune exec test/regen_golden.exe -- probcheck-n64   > test/golden/probcheck_n64.expected
     dune exec test/regen_golden.exe -- knowledge-spec  > test/golden/knowledge_spec.expected *)

let () =
  let which = if Array.length Sys.argv > 1 then Sys.argv.(1) else "experiments" in
  match which with
  | "experiments" ->
      Format.printf "%a" Eba_harness.Experiments.pp_verdicts
        (Eba_harness.Experiments.all ~scale:Eba_harness.Experiments.Small ())
  | "probcheck-small" | "probcheck-n64" -> (
      let name = String.sub which 10 (String.length which - 10) in
      match Eba_harness.Probcheck_cases.by_name name with
      | Some report ->
          print_string (Eba.Json.to_string (Eba.Prob.Report.to_json report))
      | None -> assert false)
  | "knowledge-spec" -> print_string (Eba_harness.Knowledge_cases.spec_replies ())
  | other ->
      Printf.eprintf
        "regen_golden: unknown target %S (expected experiments, \
         probcheck-small, probcheck-n64 or knowledge-spec)\n"
        other;
      exit 2
