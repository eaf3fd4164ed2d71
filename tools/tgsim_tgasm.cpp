// tgsim-tgasm — assembles .tgp text into the .bin image executed by the TG
// processor (paper Sec. 5: "an assembler is used to convert the symbolic TG
// program into a binary image").
//
//   tgsim-tgasm program.tgp [--out=program.bin] [--print]
#include <cstdio>

#include "cli.hpp"
#include "tg/program.hpp"

using namespace tgsim;

namespace {

cli::OptionSet options() {
    using K = cli::OptionSpec::Kind;
    cli::OptionSet set{"tgsim-tgasm",
                       "assemble one .tgp program into a .bin image",
                       "FILE.tgp"};
    set.add({"out", K::Text, "FILE.bin", "",
             "output image (default: the input with .tgp replaced by .bin)"})
        .add({"print", K::Flag, "", "", "also print the image words"});
    return set;
}

} // namespace

int main(int argc, char** argv) {
    const cli::Options args = options().parse(argc, argv);
    if (args.positional().size() != 1) {
        options().print_help(stderr);
        return 1;
    }
    const std::string in_path = args.positional()[0];
    const tg::TgProgram prog = cli::load_program("tgsim-tgasm", in_path);
    const auto image =
        cli::load_or_exit("tgsim-tgasm", in_path, [&] { return tg::assemble(prog); });
    std::string out_path = args.get("out");
    if (out_path.empty()) {
        out_path = in_path;
        const auto dot = out_path.rfind(".tgp");
        if (dot != std::string::npos) out_path.erase(dot);
        out_path += ".bin";
    }
    cli::save_image(image, out_path);
    std::printf("%s: %zu instructions -> %zu words -> %s\n", in_path.c_str(),
                prog.instrs.size(), image.size(), out_path.c_str());
    if (args.has("print")) {
        for (std::size_t i = 0; i < image.size(); ++i)
            std::printf("%04zx: 0x%08X\n", i, image[i]);
    }
    return 0;
}
