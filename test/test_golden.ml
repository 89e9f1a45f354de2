(* Golden reproduction pins.  E1..E12 at Small scale, verdict lines diffed
   against the committed test/golden/experiments.expected; and the served
   knowledge-query spec replies for every named protocol over the twelve
   knowledge-cold universes (test/golden/knowledge_spec.expected).  A behaviour
   change anywhere in the stack — enumeration, epistemic kernels, the
   optimizer, the protocol zoo — that flips a paper claim (or silently
   changes which claims are even checked) shows up as a one-line diff
   here.  Regenerate with:

     dune exec test/regen_golden.exe > test/golden/experiments.expected
     dune exec test/regen_golden.exe -- knowledge-spec > test/golden/knowledge_spec.expected *)

open Helpers

let expected_path = "golden/experiments.expected"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let actual () =
  Format.asprintf "%a" Eba_harness.Experiments.pp_verdicts
    (Eba_harness.Experiments.all ~scale:Eba_harness.Experiments.Small ())

let tests =
  [
    slow "served knowledge-query spec replies match the committed golden file"
      (fun () ->
        Alcotest.(check string) "knowledge_spec.expected"
          (read_file "golden/knowledge_spec.expected")
          (Eba_harness.Knowledge_cases.spec_replies ()));
    slow "E1..E12 verdicts match the committed golden file" (fun () ->
        let expected = read_file expected_path in
        Alcotest.(check string) "experiments.expected" expected (actual ()));
    test "every experiment id appears exactly once in the golden file" (fun () ->
        let golden = read_file expected_path in
        List.iter
          (fun id ->
            let needle = id ^ " " in
            let occurrences = ref 0 in
            let lines = String.split_on_char '\n' golden in
            List.iter
              (fun l -> if String.starts_with ~prefix:needle l then incr occurrences)
              lines;
            check_int (id ^ " pinned once") 1 !occurrences)
          (Eba_harness.Experiments.ids ()));
  ]

let suite = ("golden", tests)
