module Json = Eba.Json
module Registry = Eba.Server.Registry

let universes =
  [
    ("crash", 3, 1, 2);
    ("crash", 3, 1, 3);
    ("crash", 3, 1, 4);
    ("crash", 4, 1, 2);
    ("crash", 4, 1, 3);
    ("crash", 4, 1, 4);
    ("crash", 3, 2, 3);
    ("crash", 5, 1, 2);
    ("omission", 3, 1, 2);
    ("omission", 3, 1, 3);
    ("omission", 4, 1, 2);
    ("general-omission", 3, 1, 2);
  ]

let spec_reply (mode, n, t, horizon) protocol =
  let params =
    Json.Obj
      [
        ("mode", Json.String mode);
        ("n", Json.Int n);
        ("t", Json.Int t);
        ("horizon", Json.Int horizon);
        ("protocol", Json.String protocol);
        ("query", Json.String "spec");
      ]
  in
  match Registry.prepare ~verb:"knowledge-query" ~params with
  | Error _ -> invalid_arg "Knowledge_cases: request refused"
  | Ok thunk -> (
      match thunk Registry.no_ctx with
      | Ok json -> Json.to_string json
      | Error m -> invalid_arg ("Knowledge_cases: " ^ m))

let spec_replies () =
  let b = Buffer.create 16384 in
  List.iter
    (fun u ->
      List.iter
        (fun (name, _) ->
          Buffer.add_string b (spec_reply u name);
          Buffer.add_char b '\n')
        Eba.Zoo.named)
    universes;
  Buffer.contents b
