/**
 * @file
 * A scratch directory that removes itself: ScopedTempDir creates
 * /tmp/csprint-<tag>-XXXXXX with mkdtemp and, on destruction, removes
 * that directory and everything in it — and nothing else. Checkpoint
 * stores of the tests and the report harness live in one.
 */

#ifndef CSPRINT_COMMON_TEMPDIR_HH
#define CSPRINT_COMMON_TEMPDIR_HH

#include <stdlib.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

namespace csprint {

class ScopedTempDir
{
  public:
    /** Create the directory; throws std::runtime_error if mkdtemp fails. */
    explicit ScopedTempDir(const std::string &tag)
    {
        const std::string tmpl = "/tmp/csprint-" + tag + "-XXXXXX";
        std::vector<char> buf(tmpl.begin(), tmpl.end());
        buf.push_back('\0');
        if (mkdtemp(buf.data()) == nullptr)
            throw std::runtime_error("mkdtemp(" + tmpl +
                                     "): " + std::strerror(errno));
        path_ = buf.data();
    }

    ~ScopedTempDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScopedTempDir(const ScopedTempDir &) = delete;
    ScopedTempDir &operator=(const ScopedTempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

} // namespace csprint

#endif // CSPRINT_COMMON_TEMPDIR_HH
